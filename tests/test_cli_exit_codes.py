"""The CLI's exit-code contract on generated formula text: 0, 1 or 2, never
an escaping exception, and an ``error:`` message on 2. Negation and
parenthesis runs reach past both nesting bounds, the parser's and the
compiler's."""

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
