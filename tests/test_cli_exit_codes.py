"""The CLI's exit-code contract on generated formula text and generated
graph and model files: 0, 1 or 2, never an escaping exception, and an
``error:`` message on 2. Negation and parenthesis runs reach past both
nesting bounds, the parser's and the compiler's; files are assembled from
line fragments, good and bad."""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefrev.cli import main

MODEL = "atoms: p q\nworld a: p & q\nworld b: ~p & q\nworld c: ~p & ~q\nb <= a\nc <= b\n"
GRAPH_HEAD = "atoms: p q\nnode a: q\n"


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("exit_codes")
    (root / "m.model").write_text(MODEL)
    (root / "g.pg").write_text(GRAPH_HEAD)
    return root


CORES = st.sampled_from(["p", "q & ~p", "p -> q <-> p", "zz", "p &", "(p", "p)", "", "@", "T | F"])
OPENERS = st.sampled_from(["~", "!", "(", "~(", "(~"])
DEPTHS = st.one_of(st.integers(0, 1200), st.integers(480, 500), st.integers(900, 1000))


@st.composite
def nested_texts(draw):
    """A short core inside a run of openers, closed by a run of ``)`` that
    may be too short or too long."""
    opener, depth = draw(OPENERS), draw(DEPTHS)
    closing = opener.count("(") * depth + draw(st.sampled_from([0, 0, 0, -1, 1]))
    return opener * depth + draw(CORES) + ")" * max(closing, 0)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=100, deadline=None)
@given(nested_texts(), st.sampled_from(["lex", "natural", "prefix", "induce", "check"]))
def test_generated_formulas_keep_the_exit_code_contract(files, text, command):
    model, graph = str(files / "m.model"), str(files / "g.pg")
    if command == "induce":
        (files / "label.pg").write_text(f"{GRAPH_HEAD}node b: {text}\n")
        argv = ["induce", str(files / "label.pg")]
    elif command == "check":
        argv = ["check", "--before", model, "--after", model, f"--by={text}"]
    else:
        argv = ["revise", graph if command == "prefix" else model, "--op", command, f"--by={text}"]
    code, err = run(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("error: ")


EXTRA = [f"x{i}" for i in range(19)]
GOOD_HEADERS = st.sampled_from(["atoms: p q", "atoms: p, q"])
BAD_HEADERS = st.sampled_from([
    "atoms: p q r", "atoms: p p", "atoms:", "atom p q", "atoms: p T", "atoms: p q 9",
    " ".join(["atoms: p q", *EXTRA[:11]]), " ".join(["atoms: p q", *EXTRA]),
])
NODES = {"a": "p", "b": "q & ~p", "c": "p | q", "d": "T"}
WORLDS = {"a": "p & q", "b": "~p & q", "c": "!p & ~q", "d": "~p&~q"}
FILLER = st.sampled_from(["# comment", "", "   # indented comment"])
# Bad graph lines: duplicate and unknown nodes, unknown atoms, self-loops, cycles.
BAD_GRAPH_LINES = st.sampled_from([
    "node a: q", "node z: zz", "node y: F & zz", "node x: p &", "b < a", "d < a",
    "a < a", "a < zz", "world a: p & q", "junk",
])
# Bad model lines: duplicate and unknown worlds, doubled and missing literals.
BAD_MODEL_LINES = st.sampled_from([
    "world a: p & ~q", "world e: p & p", "world f: p", "world g: p & ~p",
    "world h: p & q & zz", "a <= zz", "node a: p", "junk",
])


@st.composite
def file_texts(draw, graph):
    """A file of good lines (some nodes or all worlds, and edges between
    them) with filler lines, and often a bad header or one bad line."""
    if graph:
        names = draw(st.lists(st.sampled_from(sorted(NODES)), unique=True))
        body = [f"node {n}: {NODES[n]}" for n in names]
        pairs = [(a, b) for a in names for b in names if a < b]  # acyclic
        bad = BAD_GRAPH_LINES
    else:
        names = draw(st.permutations(sorted(WORLDS)))
        body = [f"world {n}: {WORLDS[n]}" for n in names]
        pairs = [(a, b) for a in names for b in names]
        bad = BAD_MODEL_LINES
    if pairs:
        op = " < " if graph else " <= "
        body += [op.join(pair) for pair in draw(st.lists(st.sampled_from(pairs), max_size=4))]
    extra = draw(st.lists(FILLER, max_size=2))
    if draw(st.integers(0, 2)) == 0:
        extra.append(draw(bad))
    for line in extra:
        body.insert(draw(st.integers(0, len(body))), line)
    header = draw(st.one_of(GOOD_HEADERS, GOOD_HEADERS, BAD_HEADERS))
    return "\n".join([header, *body]) + "\n"


@settings(max_examples=150, deadline=None)
@given(
    st.lists(file_texts(True), min_size=2, max_size=2),
    st.lists(file_texts(False), min_size=2, max_size=2),
    st.sampled_from(["induce", "lex", "natural", "null", "prefix", "check", "equiv", "fact-min"]),
    st.booleans(), st.sampled_from(["p", "q & ~p", "p | ~q", "zz", "F & zz", "p &"]),
)
def test_generated_files_keep_the_exit_code_contract(files, graphs, models, command, on_graph, by):
    g1, g2, m1, m2 = (files / name for name in ("g1.pg", "g2.pg", "m1.model", "m2.model"))
    for path, text in zip((g1, g2, m1, m2), graphs + models):
        path.write_text(text)
    argv = {
        "induce": ["induce", str(g1)],
        "check": ["check", "--before", str(m1), "--after", str(m2), f"--by={by}"],
        "equiv": ["equiv", str(g1), str(g2)],
        "fact-min": ["demo", "fact-min", "--graph", str(g1), f"--by={by}"],
    }.get(command, ["revise", str(g1 if on_graph else m1), "--op", command, f"--by={by}"])
    code, err = run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ")
