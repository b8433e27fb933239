import contextlib
import io
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beliefrev.files
from beliefrev import BeliefRevError, PGraph, PreferenceModel, Signature
from beliefrev.cli import main
from beliefrev.errors import FileFormatError, GraphCycleError, ResourceBoundError, UnknownAtomError
from beliefrev.files import (
    dump_graph,
    dump_model,
    file_kind,
    graph_to_dot,
    model_to_dot,
    parse_graph_file,
    parse_model_file,
)
from beliefrev.formula import Atom, Or, parse
from beliefrev.semantics import null_change
from beliefrev.transforms import null_transform
from helpers import SIG_PQ, all_equal_fixture, chain_fixture, f, graph

CHAIN_GRAPH = """\
# importance runs left to right
atoms: p q
node a: p
node b: q
a < b
"""

CHAIN_MODEL = """\
atoms: p q
world w_pq: p & q
world w_p: p & ~q
world w_q: ~p & q
world w_0: ~p & ~q
w_pq <= w_p
w_p <= w_q
w_q <= w_0
"""


def test_parse_graph_file():
    sig, g = parse_graph_file(CHAIN_GRAPH)
    assert tuple(sig) == ("p", "q")
    assert g.label("a") == f("p")
    assert g.edges == frozenset({("a", "b")})


def test_parse_model_file_closes_the_order():
    sig, m = parse_model_file(CHAIN_MODEL)
    assert m == chain_fixture()


def test_model_file_closes_through_256_middles():
    middles = [f"k{i}" for i in range(256)]
    text = "\n".join(
        ["atoms: p", "world a: p", "world b: ~p"]
        + [f"world {k}: p" for k in middles]
        + [f"a <= {k}" for k in middles]
        + [f"{k} <= b" for k in middles]
    )
    _, m = parse_model_file(text)
    assert len(m.worlds) == 258
    assert m.leq("a", "b") and not m.leq("b", "a")


def test_model_file_ties_via_opposite_edges():
    text = CHAIN_MODEL + "w_0 <= w_q\n"
    _, m = parse_model_file(text)
    assert m.leq("w_0", "w_q") and m.leq("w_q", "w_0")


def test_graph_file_errors_carry_line_numbers():
    with pytest.raises(FileFormatError) as err:
        parse_graph_file("atoms: p q\nnode a: p\na < ghost\n")
    assert err.value.line == 3

    with pytest.raises(FileFormatError) as err:
        parse_graph_file("atoms: p q\nnode a: p &\n")
    assert err.value.line == 2

    with pytest.raises(FileFormatError) as err:
        parse_graph_file("nodes first\n")
    assert err.value.line == 1

    with pytest.raises(FileFormatError) as err:
        parse_graph_file("atoms: p q\nnode a: p\nnode a: q\n")
    assert err.value.line == 3

    with pytest.raises(GraphCycleError):
        parse_graph_file("atoms: p q\nnode a: p\nnode b: q\na < b\nb < a\n")


def test_model_file_errors():
    with pytest.raises(FileFormatError) as err:
        parse_model_file("atoms: p q\nworld w: p\n")
    assert "does not assign" in str(err.value)

    with pytest.raises(FileFormatError):
        parse_model_file("atoms: p q\nworld w: p & ~q & p\n")

    with pytest.raises(FileFormatError) as err:
        parse_model_file("atoms: p q\nworld w: p & ~q\nw <= ghost\n")
    assert err.value.line == 3

    with pytest.raises(FileFormatError):
        parse_model_file("atoms: p q\n")


def test_graph_dump_round_trip():
    g = graph(
        {"top": "~p", "a": "p", "b": "q"},
        [("top", "a"), ("top", "b"), ("a", "b")],
    )
    sig2, back = parse_graph_file(dump_graph(SIG_PQ, g))
    assert back == g
    assert sig2 == SIG_PQ


def test_graph_dump_rejects_a_label_atom_its_file_could_not_declare():
    labels = {"a": Atom("p"), "b": Or(Atom("q"), Atom("r")), "c": Atom("s")}
    with pytest.raises(UnknownAtomError) as err:
        dump_graph(Signature(["p"]), PGraph(labels, {("a", "b")}))
    assert err.value.atom == "q"
    with pytest.raises(UnknownAtomError, match="'q'"):
        dump_graph(Signature(["p"]), PGraph({"b": Atom("q")}, set()))


def test_model_dump_round_trip_total_and_tied():
    for m in (chain_fixture(), all_equal_fixture()):
        _, back = parse_model_file(dump_model(m))
        assert back == m


def test_model_dump_round_trip_partial_order():
    # w_pq below two incomparable worlds
    from helpers import canonical_pq

    worlds = canonical_pq()
    m = PreferenceModel.from_edges(
        worlds, [("w_pq", "w_p"), ("w_pq", "w_q"), ("w_pq", "w_0")]
    )
    _, back = parse_model_file(dump_model(m))
    assert back == m


def test_model_dump_lists_worlds_most_preferred_first():
    lines = dump_model(chain_fixture()).splitlines()
    world_lines = [l for l in lines if l.startswith("world ")]
    assert len(world_lines) == 4
    assert world_lines[0].startswith("world w_pq:")
    assert world_lines[-1].startswith("world w_0:")


def test_dot_exports_mention_every_node():
    g = graph({"a": "p", "b": "q"}, [("a", "b")])
    dot = graph_to_dot(g)
    assert '"a" -> "b";' in dot
    dot_model = model_to_dot(chain_fixture())
    for world_id in ("w_pq", "w_p", "w_q", "w_0"):
        assert world_id in dot_model


def test_valuation_errors_keep_their_text_and_order():
    cases = {
        "p & zz & p": "line 2: unknown atom 'zz' in valuation",
        "p & ~p & zz": "line 2: atom 'p' assigned twice",
        "~r & q": "line 2: valuation does not assign 'p'",
        "q & p": "line 2: valuation does not assign 'r'",
    }
    for literals, message in cases.items():
        with pytest.raises(FileFormatError) as err:
            parse_model_file(f"atoms: p q r\nworld w: {literals}\n")
        assert str(err.value) == message
    _, model = parse_model_file("atoms: p q r\nworld w: ~r & p & !q\n")
    assert model.world("w").valuation.bits == (True, False, False)


def test_world_line_spellings_parse_to_the_same_valuations():
    cases = {
        "world w: p & ~q & r": (True, False, True),
        "world w: ~ p & q & ~ r": (False, True, False),
        "world w: !p & !q & r": (False, False, True),
        "world w: ! p&q&!r": (False, True, False),
        "world\tw\t:\tr\t&\t~q\t&\tp": (True, False, True),
        "world w: r & ~ q & !p": (False, False, True),
        "world w:q&p&~r": (True, True, False),
    }
    for line, bits in cases.items():
        _, model = parse_model_file(f"atoms: p q r\n{line}\n")
        assert model.world("w").valuation.bits == bits, line


def test_one_atom_spelled_several_ways_in_one_file():
    text = (
        "atoms: p q\n"
        "world a: p & q\n"
        "world b:  p  & ~q\n"
        "world c: ~ p & q\n"
        "world d: !p & ~q\n"
        "world e: q&p\n"
    )
    _, model = parse_model_file(text)
    bits = {w.id: w.valuation.bits for w in model.worlds}
    assert bits == {
        "a": (True, True), "b": (True, False), "c": (False, True),
        "d": (False, False), "e": (True, True),
    }


def test_a_repeated_literal_text_gives_equal_valuations():
    text = "atoms: p q\nworld a: p & ~q\nworld b: ~q & p\nworld c: p & ~q\n"
    _, model = parse_model_file(text)
    a, b, c = (model.world(i).valuation for i in "abc")
    assert a == b == c
    assert a is c


def test_an_unknown_atom_is_reported_after_its_line_mates_were_cached():
    with pytest.raises(FileFormatError) as err:
        parse_model_file("atoms: p q\nworld a: p & q\nworld b: p & zz\n")
    assert str(err.value) == "line 3: unknown atom 'zz' in valuation"


def test_an_atom_assigned_twice_through_two_spellings():
    for literals in ("p & ~ p", "!p & p & q", "~q & p & ! q"):
        with pytest.raises(FileFormatError) as err:
            parse_model_file(f"atoms: p q\nworld a: p & q\nworld b: {literals}\n")
        atom = "p" if literals.count("p") > 1 else "q"
        assert str(err.value) == f"line 3: atom {atom!r} assigned twice"


def test_back_to_back_files_with_different_atoms_share_no_table():
    _, first = parse_model_file("atoms: p q\nworld a: p & ~q\nworld b: ~p & q\n")
    _, second = parse_model_file("atoms: q p\nworld a: p & ~q\nworld b: ~p & q\n")
    assert [w.valuation.bits for w in first.worlds] == [(True, False), (False, True)]
    assert [w.valuation.bits for w in second.worlds] == [(False, True), (True, False)]
    with pytest.raises(FileFormatError) as err:
        parse_model_file("atoms: r\nworld a: p\n")
    assert str(err.value) == "line 2: unknown atom 'p' in valuation"


def docstring_example(heading):
    """The indented example block under ``heading`` in the module docstring."""
    block = beliefrev.files.__doc__.split(heading + "::\n\n", 1)[1].split("\n\n", 1)[0]
    return textwrap.dedent(block) + "\n"


def test_the_module_docstring_examples_parse():
    sig, g = parse_graph_file(docstring_example("Graph files"))
    assert sig == SIG_PQ and g.node_ids == ("a", "b") and g.edges == {("a", "b")}
    sig, model = parse_model_file(docstring_example("Model files"))
    assert sig == SIG_PQ
    assert model.describe_order() == "w1 < w2"


def test_the_world_bound_admits_its_last_world_and_names_the_next_line(monkeypatch):
    monkeypatch.setattr(beliefrev.files, "MODEL_WORLD_LIMIT", 3)
    text = "atoms: p\n# three worlds\nworld a: p\nworld b: ~p\nworld c: p\n"
    _, model = parse_model_file(text)
    assert model.ids == ("a", "b", "c")
    with pytest.raises(ResourceBoundError) as err:
        parse_model_file(text + "a <= b\nworld d: ~p\n")
    assert str(err.value) == "line 7: more than 3 worlds"
    assert not isinstance(err.value, FileFormatError)


# --- telling the formats apart -------------------------------------------------

SEP = st.sampled_from([" ", "\t"])
NODE_LABELS = {"a": "p", "b": "q & ~p", "c": "p | q"}
WORLD_VALUATIONS = {"a": "p & q", "b": "~p & q", "c": "!p & ~q", "d": "~p&~q"}
FILLER = st.sampled_from(["", "   ", "# a comment", "  # node x: p", "#world y: p & q"])


@st.composite
def fragment_texts(draw):
    """A text assembled from line fragments: most often a graph file's or a
    model file's lines, otherwise any mix of node, world, edge and order
    lines, which may clash or dangle. The header may be missing; blank and
    ``#`` lines go anywhere; each keyword is followed by a space or a tab."""
    node = lambda n: f"node{draw(SEP)}{n}: {NODE_LABELS[n]}"
    world = lambda n: f"world{draw(SEP)}{n}: {WORLD_VALUATIONS[n]}"
    flavour = draw(st.sampled_from(["graph", "model", "mixed"]))
    if flavour == "mixed":
        names = st.sampled_from(sorted(WORLD_VALUATIONS))
        pairs = st.tuples(names, names)
        body = draw(st.lists(st.one_of(
            st.sampled_from(sorted(NODE_LABELS)).map(node), names.map(world),
            pairs.map(" < ".join), pairs.map(" <= ".join),
        ), max_size=6))
    else:
        graph = flavour == "graph"
        labels = NODE_LABELS if graph else WORLD_VALUATIONS
        names = draw(st.lists(st.sampled_from(sorted(labels)), unique=True, min_size=not graph))
        body = [(node if graph else world)(n) for n in names]
        pairs = [(a, b) for a in names for b in names if a < b or not graph]
        if pairs:
            edges = draw(st.lists(st.sampled_from(pairs), max_size=3))
            body += [(" < " if graph else " <= ").join(pair) for pair in edges]
    if draw(st.integers(0, 5)):
        body.insert(0, f"atoms:{draw(SEP)}p q")
    for line in draw(st.lists(FILLER, max_size=3)):
        body.insert(draw(st.integers(0, len(body))), line)
    return "\n".join(body) + "\n"


@pytest.fixture(scope="module")
def kind_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("kinds")


@settings(max_examples=200, deadline=None)
@given(fragment_texts(), st.booleans())
def test_file_kind_names_the_one_parser_that_accepts_a_text(kind_dir, text, mark):
    accepted = {}
    for kind, parser in (("graph", parse_graph_file), ("model", parse_model_file)):
        with contextlib.suppress(BeliefRevError):
            accepted[kind] = parser(text)
    path = kind_dir / "input"
    path.write_bytes(b"\xef\xbb\xbf" * mark + text.encode())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["revise", str(path), "--op", "null", "--by", "p"])
    if len(accepted) != 1:
        assert code == 2 and err.getvalue().startswith("error: ")
        return
    [(kind, (sig, parsed))] = accepted.items()
    assert file_kind(text) == kind
    by = parse("p", sig)
    if kind == "graph":
        expected = dump_graph(sig, null_transform(parsed, by))
    else:
        expected = dump_model(null_change(parsed, by).model)
    assert (code, out.getvalue(), err.getvalue()) == (0, expected, "")
