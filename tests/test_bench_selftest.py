"""The benchmark's own self-test, run with the suite, so that a library
change that breaks the benchmark's tracing or oracles fails here at once."""

import contextlib
import importlib.util
import io
import subprocess
import sys
from pathlib import Path

import beliefrev.cli

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).parent / "data"


def test_bench_selftest_passes():
    done = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def load_tracing():
    """``bench/tracing.py`` as a module of its own, without putting ``bench/``
    on the import path."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_sees_the_operators_that_revise_applies():
    # The tracer rebinds module globals, dict values and dataclass fields; an
    # operator held any other way (say, in a tuple) would run untraced.
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for name, op in (("ties5.model", "lex"), ("ties5.model", "natural"), ("chain2.pg", "prefix")):
                argv = ["revise", str(DATA / name), "--op", op, "--by", "p"]
                assert beliefrev.cli.main(argv) == 0  # looked up after install
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["semantics.revise.calls"] == 2
    assert metrics["transforms.prefix.calls"] == 1
    assert metrics["cli.main.calls"] == 3


def traced(argv):
    """The layer metrics of one traced in-process ``main(argv)`` call."""
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert beliefrev.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    return tracer.layer_metrics()


def test_telling_a_file_kind_parses_each_file_once():
    # ``revise`` decides a file's kind before parsing it; that check must not
    # parse the file, and the prefix it applies must stay traced.
    graph, model = str(DATA / "chain2.pg"), str(DATA / "ties5.model")
    for argv, prefixes in (
        (["revise", graph, "--op", "prefix", "--by", "p"], 1),
        (["revise", model, "--op", "lex", "--by", "p"], 0),
        (["induce", graph], 0),
    ):
        metrics = traced(argv)
        parses = metrics["files.parse_graph_file.calls"] + metrics["files.parse_model_file.calls"]
        assert (parses, metrics["transforms.prefix.calls"]) == (1, prefixes), argv
