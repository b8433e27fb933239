import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import beliefrev
import beliefrev.semantics
from beliefrev.cli import main
from beliefrev.files import (
    MODEL_WORLD_LIMIT,
    dump_graph,
    dump_model,
    graph_to_dot,
    model_to_dot,
    parse_graph_file,
    parse_model_file,
)
from beliefrev.formula import parse, to_text
from beliefrev.semantics import lex_revise, natural_revise, null_change
from beliefrev.transforms import null_transform, prefix

CHAIN_GRAPH = """\
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


DATA = Path(__file__).parent / "data"
FOUR_NODES = "atoms: p q\nnode a: p\nnode b: q\nnode c: p\nnode d: q\n"


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "chain.pg"
    path.write_text(CHAIN_GRAPH)
    return str(path)


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "chain.model"
    path.write_text(CHAIN_MODEL)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- induce -------------------------------------------------------------------


def test_induce_dumps_the_canonical_model(capsys, graph_file):
    code, out, _ = run(capsys, "induce", graph_file)
    assert code == 0
    world_lines = [l for l in out.splitlines() if l.startswith("world ")]
    assert len(world_lines) == 4
    assert world_lines[-1].startswith("world w_0:")
    assert "# preference order: w_pq < w_p < w_q < w_0" in out


# Outputs too large to keep as files are pinned by their SHA-256.
GOLDEN_SHA256 = {
    ("chain8", "--json"): "c7db573f717127534edf8e2d77e1af964fd62fcd3b57764a67f8e42069dd06b5",
    ("chain10", None): "fe583888e9215dcc68f625b6bbe92e4fb13efbf7c78f851c4b51c86b454e4704",
}


@pytest.mark.parametrize(
    "name, flag",
    [
        pytest.param("chain8", None, id="chain8"),
        pytest.param("ties5", None, id="ties5"),
        pytest.param("chain8", "--dot", id="chain8-dot"),
        pytest.param("ties5", "--dot", id="ties5-dot"),
        pytest.param("chain8", "--json", id="chain8-json"),
        pytest.param("ties5", "--json", id="ties5-json"),
        pytest.param("chain10", None, id="chain10"),
    ],
)
def test_induce_matches_the_golden_dump(capsys, name, flag):
    data = Path(__file__).parent / "data"
    argv = ["induce", str(data / f"{name}.pg")] + ([flag] if flag else [])
    code, out, _ = run(capsys, *argv)
    assert code == 0
    if (name, flag) in GOLDEN_SHA256:
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[name, flag]
    else:
        suffix = {None: "model", "--dot": "dot", "--json": "json"}[flag]
        assert out == (data / f"{name}.{suffix}").read_text(encoding="utf-8")


# Run in a fresh interpreter so that ``ru_maxrss`` is this dump's peak alone.
INDUCE_PEAK_PROBE = """\
import contextlib, hashlib, io, resource, sys
from beliefrev.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(["induce", sys.argv[1]])
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(code, hashlib.sha256(out.getvalue().encode()).hexdigest(), peak_mb)
"""


def induce_digest_within_200_mb(name: str) -> str:
    """The SHA-256 of ``induce``'s dump of a data file, after checking that
    it exits 0 and peaks at no more than 200 MB."""
    path = Path(__file__).parent / "data" / f"{name}.pg"
    src = str(Path(beliefrev.__file__).parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", INDUCE_PEAK_PROBE, str(path)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    )
    code, digest, peak_mb = done.stdout.split()
    assert code == "0"
    assert float(peak_mb) <= 200
    return digest


def test_induce_at_the_12_atom_bound_keeps_its_dump_within_200_mb():
    digest = induce_digest_within_200_mb("chain12")
    assert digest == "1ad6c33dd74576c955ef580947f1ec0974136f726fde9b39a4b4158c82c3109f"


def test_induce_of_a_partial_order_at_the_12_atom_bound_keeps_its_dump_within_200_mb():
    digest = induce_digest_within_200_mb("partial12")
    assert digest == "b557279ed563bae9c65fffccd46ee505c552a6280f03654b14f99497b98dd04e"


# Run in a fresh interpreter so that ``sys.modules`` holds only what these
# requests imported.
NUMPY_MA_PROBE = """\
import contextlib, io, sys
from beliefrev.cli import main
graph, model, after = sys.argv[1:]
def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(list(argv))
    return code, out.getvalue()
codes = [run("induce", graph)[0]]
code, text = run("revise", model, "--op", "lex", "--by", "p | ~r")
with open(after, "w") as f:
    f.write(text)
codes += [code, run("check", "--before", model, "--after", after, "--by", "p | ~r")[0]]
print(*codes, "numpy.ma" in sys.modules)
"""


def test_requests_on_a_partial_order_never_import_numpy_ma(tmp_path):
    # numpy.ma (imported by np.unique, among others) costs about 1 MB of
    # peak RSS on every request.
    data = Path(__file__).parent / "data"
    src = str(Path(beliefrev.__file__).parent.parent)
    argv = [str(data / "ties5.pg"), str(data / "ties5.model"), str(tmp_path / "after.model")]
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_MA_PROBE, *argv],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    )
    # Lexicographic revision fails CB here, so ``check`` exits 1.
    assert done.stdout.split() == ["0", "0", "1", "False"]


def test_induce_json(capsys, graph_file):
    code, out, _ = run(capsys, "induce", graph_file, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == "w_pq < w_p < w_q < w_0"
    assert ["w_pq", "w_p"] in payload["leq"]


def test_induce_reports_parse_errors(capsys, tmp_path):
    bad = tmp_path / "bad.pg"
    bad.write_text("atoms: p q\nnode a: p\na << b\n")
    code, _, err = run(capsys, "induce", str(bad))
    assert code == 2
    assert "line 3" in err


@pytest.mark.parametrize(
    "text, error",
    [
        ("atoms: p q\nnode a: p\nnode b: q\nnode c: p\na < b\nb < c\nc < b\n",
         "preference cycle: b < c < b"),
        # self-loops are found before cycles
        (FOUR_NODES + "a < b\nb < a\nc < c\n", "self-loop on node 'c'"),
        # the cycle runs through the first node on one
        (FOUR_NODES + "c < d\nd < c\na < b\nb < a\n", "preference cycle: a < b < a"),
    ],
    ids=["cycle", "self-loop-first", "first-node-cycle"],
)
def test_cycle_error_is_the_same_under_every_hash_seed(tmp_path, text, error):
    path = tmp_path / "cycle.pg"
    path.write_text(text)
    src = str(Path(beliefrev.__file__).parent.parent)
    errs = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "beliefrev.cli", "induce", str(path)],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 2
        errs.add(done.stderr)
    assert errs == {f"error: {error}\n"}


def test_induce_empty_graph_single_tie_class(capsys, tmp_path):
    path = tmp_path / "empty.pg"
    path.write_text("atoms: p\n")
    code, out, _ = run(capsys, "induce", str(path))
    assert code == 0
    assert "{w_p ~ w_0}" in out


# --- revise -------------------------------------------------------------------


def test_revise_model_lexicographically(capsys, model_file):
    code, out, _ = run(capsys, "revise", model_file, "--op", "lex", "--by", "~p")
    assert code == 0
    assert "# preference order: w_q < w_0 < w_pq < w_p" in out


def test_revise_model_naturally(capsys, model_file):
    code, out, _ = run(capsys, "revise", model_file, "--op", "natural", "--by", "~p")
    assert code == 0
    assert "# preference order: w_q < w_pq < w_p < w_0" in out


def test_revise_rejects_non_utf8_input(capsys, tmp_path):
    path = tmp_path / "bad.model"
    path.write_bytes(CHAIN_MODEL.encode() + b"# \xff\n")
    code, out, err = run(capsys, "revise", str(path), "--op", "lex", "--by", "p")
    assert code == 2
    assert out == ""
    assert "not UTF-8" in err


def test_a_model_file_past_the_world_bound_exits_2_before_any_relation(
    capsys, tmp_path, monkeypatch
):
    path = tmp_path / "big.model"
    worlds = "".join(f"world w{i}: p\n" for i in range(MODEL_WORLD_LIMIT + 1))
    path.write_text("atoms: p\n" + worlds)

    def no_relation(cls, *args):
        raise AssertionError("a relation was built")

    monkeypatch.setattr(beliefrev.semantics.PreferenceModel, "from_edges", classmethod(no_relation))
    code, out, err = run(capsys, "revise", str(path), "--op", "lex", "--by", "p")
    assert (code, out) == (2, "")
    assert err == f"error: line {MODEL_WORLD_LIMIT + 2}: more than {MODEL_WORLD_LIMIT} worlds\n"


def test_running_out_of_memory_exits_2_without_a_traceback(capsys, monkeypatch, model_file):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(beliefrev.semantics, "transitive_closure", exhausted)
    code, out, err = run(capsys, "revise", model_file, "--op", "lex", "--by", "p")
    assert (code, out) == (2, "")
    assert err.startswith("error: out of memory")
    assert "Traceback" not in err


def test_running_out_of_memory_under_an_address_space_limit_exits_2(tmp_path):
    resource = pytest.importorskip("resource")
    n = 6000  # a 36 MB relation, and several n x n arrays to revise it
    path = tmp_path / "big.model"
    worlds = "".join(f"world w{i}: p\n" for i in range(n))
    chain = "".join(f"w{i} <= w{i + 1}\n" for i in range(n - 1))
    path.write_text("atoms: p\n" + worlds + chain)
    limit = 250 * 2**20

    def limit_the_child():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(beliefrev.__file__).parent.parent)
    # one BLAS thread, so numpy still imports under the limit
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-m", "beliefrev.cli", "revise", str(path), "--op", "lex", "--by", "p"],
        env=env, capture_output=True, text=True, preexec_fn=limit_the_child, timeout=120,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: out of memory; the input is too large for this machine\n"


def test_deeply_nested_formulas_are_input_errors(capsys, tmp_path, model_file):
    deep = "(" * 600 + "p" + ")" * 600
    code, out, err = run(capsys, "revise", model_file, "--op", "lex", "--by", deep)
    assert (code, out) == (2, "")
    assert err.startswith("error: formula is nested too deeply")
    graph = tmp_path / "deep.pg"
    graph.write_text(f"atoms: p q\nnode a: {deep}\n")
    code, out, err = run(capsys, "induce", str(graph))
    assert (code, out) == (2, "")
    assert err.startswith("error: line 2: formula is nested too deeply")


def test_250_levels_of_parenthesised_operands_parse_in_a_fresh_interpreter(model_file):
    """Under the documented bound of about 330 levels of ``(p -> (...))``."""
    deep = "(p -> " * 250 + "q" + ")" * 250
    src = str(Path(beliefrev.__file__).parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "beliefrev.cli", "revise", model_file, "--op", "lex", "--by", deep],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("atoms: p q\n")


def test_python_m_beliefrev_runs_the_command():
    src = str(Path(beliefrev.__file__).parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "beliefrev", "--help"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("usage: beliefrev ")


def test_negation_chains_across_the_parse_limit_are_answered_or_refused(
    capsys, tmp_path, model_file
):
    """Between the depth the parser takes and the depth the compiler takes,
    evaluation must refuse the formula as an input error, not crash."""
    graph = tmp_path / "deep.pg"
    limit = sys.getrecursionlimit()
    codes = set()
    for n in range(limit - 70, limit + 2):
        chain = "~" * n + "p"
        graph.write_text(f"atoms: p q\nnode a: {chain}\n")
        for argv in (
            ["induce", str(graph)],
            ["equiv", str(graph), str(graph)],
            ["revise", model_file, "--op", "lex", "--by", chain],
        ):
            code, _, err = run(capsys, *argv)
            assert code in (0, 2)
            assert code == 0 or err.startswith("error: ")
            codes.add(code)
    assert codes == {0, 2}


def test_revise_graph_by_prefixing(capsys, graph_file):
    code, out, _ = run(capsys, "revise", graph_file, "--op", "prefix", "--by", "~p")
    assert code == 0
    assert "node r0: ~p" in out
    assert "r0 < a" in out and "r0 < b" in out and "a < b" in out


def test_revise_graph_naturally_is_an_error(capsys, graph_file):
    code, _, err = run(capsys, "revise", graph_file, "--op", "natural", "--by", "p")
    assert code == 2
    assert "cannot be expressed as a graph transformation" in err


def test_revise_operator_input_mismatches(capsys, graph_file, model_file):
    code, _, err = run(capsys, "revise", graph_file, "--op", "lex", "--by", "p")
    assert code == 2
    assert "prefix" in err
    code, _, err = run(capsys, "revise", model_file, "--op", "prefix", "--by", "p")
    assert code == 2


# Every operator on both file kinds in every output format. An operator
# with a form on the file's kind prints what the library call prints; one
# without is refused with its reason, before the file or the formula is read.
REVISE_FILES = {"graph": ("chain2.pg", "~p"), "model": ("ties5.model", "r | ~q")}
REFUSALS = {
    ("graph", "lex"): "lexicographic revision acts on models; its graph form is prefixing, "
    "use --op prefix",
    ("graph", "natural"): "natural revision cannot be expressed as a graph transformation; "
    "apply it to a model file instead",
    ("model", "prefix"): "prefixing acts on graphs; this is a model file",
}
LIBRARY_FORMS = {
    "graph": {"prefix": prefix, "null": null_transform},
    "model": {"lex": lex_revise, "natural": natural_revise, "null": null_change},
}


def library_output(kind, op, flag):
    name, by = REVISE_FILES[kind]
    text = (DATA / name).read_text(encoding="utf-8")
    if kind == "graph":
        sig, g = parse_graph_file(text)
        g = LIBRARY_FORMS[kind][op](g, parse(by, sig))
        if flag == "--json":
            nodes = [{"id": n, "formula": to_text(g.label(n))} for n in g.node_ids]
            payload = {"atoms": list(sig), "nodes": nodes, "edges": sorted(g.edges)}
            return json.dumps(payload, indent=2) + "\n"
        return graph_to_dot(g) if flag == "--dot" else dump_graph(sig, g)
    sig, model = parse_model_file(text)
    model = LIBRARY_FORMS[kind][op](model, parse(by, sig)).model
    if flag == "--json":
        worlds = [{"id": w.id, "valuation": w.valuation.as_dict()} for w in model.worlds]
        payload = {"atoms": list(sig), "worlds": worlds, "leq": sorted(model.pairs()),
                   "order": model.describe_order()}
        return json.dumps(payload, indent=2) + "\n"
    return model_to_dot(model) if flag == "--dot" else dump_model(model)


@pytest.mark.parametrize("flag", [None, "--json", "--dot"])
@pytest.mark.parametrize("kind", list(REVISE_FILES))
@pytest.mark.parametrize("op", ["lex", "natural", "null", "prefix"])
def test_revise_applies_each_operators_form_or_refuses_with_its_reason(capsys, op, kind, flag):
    name, by = REVISE_FILES[kind]
    argv = ["revise", str(DATA / name), "--op", op, "--by", by] + ([flag] if flag else [])
    code, out, err = run(capsys, *argv)
    if (kind, op) in REFUSALS:
        assert (code, out, err) == (2, "", f"error: {REFUSALS[kind, op]}\n")
    else:
        assert (code, err) == (0, "")
        assert out == library_output(kind, op, flag)


@pytest.mark.parametrize(
    "text, op",
    [
        ("atoms: p\nnode a: p\na < a\n", "natural"),
        ("atoms: p\nnode a: p\na < a\n", "lex"),
        ("atoms: p\nworld u: p\nu <= v\n", "prefix"),
    ],
    ids=["self-loop-natural", "self-loop-lex", "unknown-world-prefix"],
)
def test_revise_refuses_an_operator_before_reading_the_file_or_the_formula(
    capsys, tmp_path, text, op
):
    kind = "graph" if "node" in text else "model"
    path = tmp_path / f"broken.{kind}"
    path.write_text(text)
    for by in ("p", "(("):
        code, out, err = run(capsys, "revise", str(path), "--op", op, "--by", by)
        assert (code, out, err) == (2, "", f"error: {REFUSALS[kind, op]}\n")


def test_revise_offers_each_operator_once_in_table_order(capsys):
    with pytest.raises(SystemExit):
        main(["revise", "--help"])
    assert "--op {lex,natural,null,prefix}" in capsys.readouterr().out


# A file with no node or world line is the empty graph, and a node line may
# put a tab after its keyword: ``revise`` reads both as graph files, as
# ``induce`` and ``equiv`` do.
@pytest.mark.parametrize(
    "text",
    ["atoms: p q\n", "atoms: p q\n\n# node x: p\n", "atoms: p q\nnode\ta: p\nnode\tb: q\na < b\n"],
    ids=["header-only", "header-and-comments", "tab-after-node"],
)
def test_revise_reads_every_file_the_graph_parser_accepts_as_a_graph(capsys, tmp_path, text):
    path = tmp_path / "g.pg"
    path.write_text(text)
    sig, g = parse_graph_file(text)
    code, out, err = run(capsys, "revise", str(path), "--op", "prefix", "--by", "p & ~q")
    assert (code, out, err) == (0, dump_graph(sig, prefix(g, parse("p & ~q", sig))), "")
    for op in ("lex", "natural"):
        code, out, err = run(capsys, "revise", str(path), "--op", op, "--by", "p")
        assert (code, out, err) == (2, "", f"error: {REFUSALS['graph', op]}\n")


# A leading UTF-8 byte-order mark is dropped: the file reads like the same
# file without one. Arguments naming a file of ``tests/data`` are replaced by
# a copy, with the mark or without it.
MARKED = ("chain2.pg", "ties5.model", "ties5_natural.model")


@pytest.mark.parametrize(
    "argv",
    [
        ["induce", "chain2.pg"],
        ["revise", "chain2.pg", "--op", "prefix", "--by", "~p"],
        ["revise", "ties5.model", "--op", "lex", "--by", "r | ~q"],
        ["check", "--before", "ties5.model", "--after", "ties5_natural.model", "--by", "p"],
        ["equiv", "chain2.pg", "chain2.pg"],
    ],
    ids=["induce", "revise-graph", "revise-model", "check", "equiv"],
)
def test_a_byte_order_mark_reads_like_the_same_file_without_one(capsys, tmp_path, argv):
    results = []
    for mark in (b"", b"\xef\xbb\xbf"):
        for name in MARKED:
            (tmp_path / name).write_bytes(mark + (DATA / name).read_bytes())
        results.append(run(capsys, *(str(tmp_path / a) if a in MARKED else a for a in argv)))
    assert results[0] == results[1]
    assert results[0][0] in (0, 1) and results[0][2] == ""


# --- check --------------------------------------------------------------------


def test_check_lex_pair_reports_cb_violation(capsys, tmp_path, model_file):
    code, out, _ = run(capsys, "revise", model_file, "--op", "lex", "--by", "~p")
    revised = tmp_path / "after.model"
    revised.write_text(out)

    code, out, _ = run(
        capsys,
        "check",
        "--before", model_file,
        "--after", str(revised),
        "--by", "~p",
    )
    assert code == 1
    assert "REC: pass" in out
    assert "CB: FAIL" in out
    assert "(w_pq, w_0)" in out


def test_check_identity_dp1(capsys, model_file):
    code, out, _ = run(
        capsys,
        "check",
        "--before", model_file,
        "--after", model_file,
        "--by", "p",
        "--postulates", "dp1",
    )
    assert code == 0
    assert out.strip() == "DP1: pass"


def test_check_selected_postulates_json(capsys, tmp_path, model_file):
    _, out, _ = run(capsys, "revise", model_file, "--op", "natural", "--by", "~p")
    revised = tmp_path / "after.model"
    revised.write_text(out)
    code, out, _ = run(
        capsys,
        "check",
        "--before", model_file,
        "--after", str(revised),
        "--by", "~p",
        "--postulates", "faith,cb,rec",
        "--json",
    )
    assert code == 1
    reports = {r["postulate"]: r for r in json.loads(out)}
    assert reports["faith"]["holds"] and reports["cb"]["holds"]
    assert not reports["rec"]["holds"]
    assert ["w_0", "w_pq"] in reports["rec"]["witnesses"]


def test_check_mismatched_worlds_is_an_input_error(capsys, tmp_path, model_file):
    other = tmp_path / "other.model"
    other.write_text("atoms: p q\nworld lone: p & q\n")
    code, _, err = run(
        capsys, "check", "--before", model_file, "--after", str(other), "--by", "p"
    )
    assert code == 2
    assert "world set" in err


def test_check_unknown_postulate(capsys, model_file):
    code, _, err = run(
        capsys,
        "check",
        "--before", model_file,
        "--after", model_file,
        "--by", "p",
        "--postulates", "dp9",
    )
    assert code == 2
    assert "dp9" in err


@pytest.mark.parametrize("selection", ["", " , "])
def test_check_with_no_postulates_selected_is_an_input_error(capsys, model_file, selection):
    code, out, err = run(
        capsys,
        "check",
        "--before", model_file,
        "--after", model_file,
        "--by", "p",
        "--postulates", selection,
    )
    assert code == 2
    assert out == ""
    assert err == "error: no postulates selected\n"


def per_postulate(before, by, after, names):
    """The per-postulate path ``check`` took before its one alignment."""
    return [beliefrev.SEMANTIC_CHECKS[name](before, by, after) for name in names]


@pytest.mark.parametrize(
    "selection, op",
    [("all", "lex"), ("cb,dp1,cb", "lex"), ("faith,rec,dp3,ind,dp2", "natural"), ("mismatch", None)],
)
def test_check_prints_what_the_per_postulate_path_prints(
    capsys, monkeypatch, tmp_path, selection, op
):
    before = str(Path(__file__).parent / "data" / "ties5.model")
    after = tmp_path / "after.model"
    if selection == "mismatch":
        after.write_text("atoms: p q r s\nworld lone: p & q & r & s\n")
    else:
        _, out, _ = run(capsys, "revise", before, "--op", op, "--by", "r | ~q")
        after.write_text(out)
    argv = ["check", "--before", before, "--after", str(after), "--by", "r | ~q"]
    if selection not in ("all", "mismatch"):
        argv += ["--postulates", selection]
    for flags in ([], ["--json"]):
        aligned_once = run(capsys, *argv, *flags)
        with monkeypatch.context() as patch:
            patch.setattr("beliefrev.cli.postulates", per_postulate)
            assert run(capsys, *argv, *flags) == aligned_once
        if selection == "mismatch":
            assert aligned_once[0] == 2 and "world set" in aligned_once[2]
        else:
            assert aligned_once[0] == 1 and aligned_once[1]


# Report outputs pinned byte for byte: a null change prints its input file
# back, the ties5 pair fails every postulate, several with more than five
# witnesses, and faithfulness with single ids.
TIES5_PAIR = ["--before", str(DATA / "ties5.model"), "--after", str(DATA / "ties5_natural.model")]
REPORT_GOLDENS = {
    "ties5_natural.model": (0, ["revise", str(DATA / "ties5.model"), "--op", "natural", "--by", "r | ~q"]),
    "ties5.model": (0, ["revise", str(DATA / "ties5.model"), "--op", "null", "--by", "p"]),
    "chain2.pg": (0, ["revise", str(DATA / "chain2.pg"), "--op", "null", "--by", "p"]),
    "check_ties5.txt": (1, ["check", *TIES5_PAIR, "--by", "p & s"]),
    "check_ties5.json": (1, ["check", *TIES5_PAIR, "--by", "p & s", "--json"]),
    "demo_fact_cb.json": (0, ["demo", "fact-cb", "--json"]),
    "demo_fact_min.json": (0, ["demo", "fact-min", "--graph", str(DATA / "chain2.pg"), "--by", "~p", "--json"]),
    "demo_harmony.json": (0, ["demo", "harmony", "--bound", "2", "--json"]),
    "demo_harmony_bound3.json": (0, ["demo", "harmony", "--bound", "3", "--json"]),
    "demo_harmony_bound3_pool_p.json": (0, ["demo", "harmony", "--bound", "3", "--pool", "p", "--json"]),
}


@pytest.mark.parametrize("golden", list(REPORT_GOLDENS))
def test_reports_match_their_golden_output(capsys, golden):
    expected_code, argv = REPORT_GOLDENS[golden]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (expected_code, "")
    assert out == (DATA / golden).read_text(encoding="utf-8")


# --- equiv --------------------------------------------------------------------


def test_equiv_accepts_the_chain_pair(capsys, tmp_path, graph_file):
    chain4 = tmp_path / "chain4.pg"
    chain4.write_text(
        "atoms: p q\n"
        "node m1: p & q\nnode m2: p & ~q\nnode m3: ~p & q\nnode m4: ~p & ~q\n"
        "m1 < m2\nm2 < m3\nm3 < m4\n"
    )
    code, out, _ = run(capsys, "equiv", graph_file, str(chain4))
    assert code == 0
    assert out.strip() == "equivalent"

    reordered = tmp_path / "reordered.pg"
    reordered.write_text(
        "atoms: p q\n"
        "node m1: p & q\nnode m3: ~p & q\nnode m2: p & ~q\nnode m4: ~p & ~q\n"
        "m1 < m3\nm3 < m2\nm2 < m4\n"
    )
    code, out, _ = run(capsys, "equiv", graph_file, str(reordered))
    assert code == 1
    assert out.strip() == "not equivalent"


# --- demo ---------------------------------------------------------------------


def test_demo_fact_cb_exits_zero(capsys):
    code, out, _ = run(capsys, "demo", "fact-cb")
    assert code == 0
    assert "verdict: true" in out


def test_demo_harmony(capsys):
    code, out, _ = run(capsys, "demo", "harmony", "--bound", "2")
    assert code == 0
    assert "255" in out


def test_demo_fact_min(capsys, graph_file):
    code, out, _ = run(capsys, "demo", "fact-min", "--graph", graph_file, "--by", "~p")
    assert code == 0
    assert "verdict: true" in out


def test_demo_fact_min_missing_flags(capsys):
    code, _, err = run(capsys, "demo", "fact-min")
    assert code == 2
    assert "--graph" in err


def test_demo_json_round_trips(capsys):
    code, out, _ = run(capsys, "demo", "fact-cb", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] is True
    assert len(payload["assertions"]) == 5


def test_demo_harmony_custom_pool_and_atoms(capsys):
    code, out, _ = run(
        capsys, "demo", "harmony", "--bound", "1",
        "--atoms", "a b c", "--pool", "a, b & c, ~a",
    )
    assert code == 0
    assert "all 12 instances" in out


def test_demo_harmony_rejects_invalid_atoms(capsys):
    for atoms in ("p T", ""):
        code, out, err = run(capsys, "demo", "harmony", "--atoms", atoms)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --atoms")


def test_demo_harmony_rejects_a_negative_bound(capsys):
    code, out, err = run(capsys, "demo", "harmony", "--bound", "-1")
    assert code == 2
    assert out == ""
    assert "negative" in err


def test_revise_graph_json(capsys, graph_file):
    code, out, _ = run(capsys, "revise", graph_file, "--op", "prefix", "--by", "p & q", "--json")
    assert code == 0
    payload = json.loads(out)
    assert {"id": "r0", "formula": "p & q"} in payload["nodes"]
    assert ["r0", "a"] in payload["edges"]


def test_dot_output(capsys, graph_file):
    code, out, _ = run(capsys, "induce", graph_file, "--dot")
    assert code == 0
    assert out.startswith("digraph preference")


def test_prefixing_by_a_2000_term_chain_prints_the_chain(capsys):
    chain = " & ".join(["p"] * 2000)
    ties5 = Path(__file__).parent / "data" / "ties5.pg"
    code, out, err = run(capsys, "revise", str(ties5), "--op", "prefix", "--by", chain)
    assert (code, err) == (0, "")
    assert f"node r0: {chain}" in out.splitlines()
