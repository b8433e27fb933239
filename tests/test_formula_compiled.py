"""The compiled formula functions against the recursive reference in
``reference_formula``: same values, same verdicts, same errors. An unknown
atom raises before any evaluation, as the reference's own ``check_atoms``
does ahead of its evaluator."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beliefrev
import reference_formula as ref
from beliefrev import (
    BeliefRevError,
    Signature,
    Valuation,
    entails,
    equivalent,
    eval_formula,
    parse,
)
from beliefrev.errors import UnknownAtomError
from beliefrev.formula import BOT, TOP, And, Atom, Iff, Implies, Not, Or, to_text
from beliefrev.semantics import worlds_for_signature
from beliefrev.files import parse_model_file
from beliefrev.formula import _MEMO_SIZE, _memo, _table
from beliefrev.semantics import _sat_vector
from helpers import SIG_PQ, SIG_PQR

DATA = Path(__file__).parent / "data"
KNOWN_LEAVES = [Atom("p"), Atom("q"), Atom("r"), TOP, BOT]
WORLDS = worlds_for_signature(SIG_PQR)


def formulas(leaves, depth=6):
    """Formulas up to ``depth`` connectives deep over ``leaves``."""
    sub = st.sampled_from(leaves)
    for _ in range(depth):
        pairs = [st.builds(kind, sub, sub) for kind in (And, Or, Implies, Iff)]
        sub = st.one_of(st.sampled_from(leaves), sub.map(Not), *pairs)
    return sub


# Half the draws may contain the unknown atom zz; the other half cannot.
KNOWN, UNKNOWN = formulas(KNOWN_LEAVES), formulas(KNOWN_LEAVES + [Atom("zz")])


def some_formulas(n):
    return st.one_of(st.tuples(*[KNOWN] * n), st.tuples(*[UNKNOWN] * n))


def outcome(fn, *args):
    """The value of ``fn(*args)``, or the unknown atom it names."""
    try:
        value = fn(*args)
    except UnknownAtomError as exc:
        return ("unknown", exc.atom)
    return ("value", value.tolist() if isinstance(value, np.ndarray) else value)


@settings(max_examples=200, deadline=None)
@given(some_formulas(1))
def test_eval_formula_matches_the_recursive_reference(fs):
    (f,) = fs

    def reference(v):
        ref.check_atoms(SIG_PQR, f)
        return ref.eval_formula(f, v)

    for v in SIG_PQR.valuations():
        assert outcome(eval_formula, f, v) == outcome(reference, v)


@settings(max_examples=200, deadline=None)
@given(some_formulas(2))
def test_entails_and_equivalent_match_the_recursive_reference(fs):
    f, g = fs
    for mine, theirs in ((entails, ref.entails), (equivalent, ref.equivalent)):
        assert outcome(mine, f, g, SIG_PQR) == outcome(theirs, f, g, SIG_PQR)
        assert outcome(mine, g, f, SIG_PQR) == outcome(theirs, g, f, SIG_PQR)


@settings(max_examples=200, deadline=None)
@given(some_formulas(1), st.permutations(WORLDS), st.integers(0, len(WORLDS)))
def test_sat_vector_matches_the_reference_on_shuffled_and_empty_worlds(fs, order, k):
    (f,) = fs
    worlds = order[:k]

    def reference():
        if worlds:  # no worlds carry no signature, so nothing is evaluated
            ref.check_atoms(SIG_PQR, f)
        return np.array([ref.eval_formula(f, w.valuation) for w in worlds], dtype=bool)

    assert outcome(_sat_vector, worlds, f) == outcome(reference)
    if not worlds:
        assert _sat_vector(worlds, f).shape == (0,)


SIGNATURES = [Signature(tuple("pqrstu"[:n])) for n in range(1, 7)]


@st.composite
def signed_formulas(draw):
    """A signature of 1 to 6 atoms and a formula over its atoms, T and F."""
    sig = draw(st.sampled_from(SIGNATURES))
    return sig, draw(formulas([Atom(a) for a in sig] + [TOP, BOT], depth=4))


@settings(max_examples=200, deadline=None)
@given(signed_formulas())
def test_table_bit_k_is_the_value_at_the_kth_valuation(case):
    sig, f = case
    table = _table(f, sig)
    assert table >> 2 ** len(sig) == 0
    for k, v in enumerate(sig.valuations()):
        assert (table >> k & 1) == eval_formula(f, v)


def test_a_2000_term_chain_behaves_as_its_atom():
    sig, _ = parse_model_file((DATA / "ties5.model").read_text())
    chain_text = " & ".join(["p"] * 2000)
    chain, p = parse(chain_text, sig), parse("p", sig)
    for v in sig.valuations():
        assert eval_formula(chain, v) == eval_formula(p, v)
    assert entails(chain, p, sig) and entails(p, chain, sig) and equivalent(chain, p, sig)

    src = str(Path(beliefrev.__file__).parent.parent)
    out = []
    for by in (chain_text, "p"):
        done = subprocess.run(
            [sys.executable, "-m", "beliefrev.cli", "revise", str(DATA / "ties5.model"),
             "--op", "lex", "--by", by],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, timeout=60,
        )
        assert (done.returncode, done.stderr) == (0, b"")
        out.append(done.stdout)
    assert out[0] == out[1]


def test_unknown_atoms_raise_unreached_and_non_formulas_at_once():
    v = Valuation(SIG_PQ, (True, False))
    for f in (And(BOT, Atom("zz")), Or(TOP, Atom("zz")), Or(BOT, Atom("zz"))):
        with pytest.raises(UnknownAtomError) as caught:
            eval_formula(f, v)
        assert caught.value.atom == "zz"
    # the recursive evaluator reaches neither zz nor the junk operand; compiling does
    assert ref.eval_formula(And(BOT, Atom("zz")), v) is False
    assert ref.eval_formula(And(BOT, "junk"), v) is False
    with pytest.raises(TypeError, match="not a formula: 'junk'"):
        eval_formula(And(BOT, "junk"), v)


def test_the_memo_is_bounded_and_keyed_by_signature():
    q, qp = Atom("q"), Signature(("q", "p"))
    assert eval_formula(q, Valuation(SIG_PQ, (True, False))) is False
    assert eval_formula(q, Valuation(qp, (True, False))) is True
    v = Valuation(SIG_PQ, (True, True))
    fresh = [And(Atom("p"), Atom("q")) for _ in range(_MEMO_SIZE + 10)]
    for f in fresh:
        assert eval_formula(f, v) is True
    assert len(_memo) == _MEMO_SIZE
    assert all(entry is f for (entry, *_), f in zip(_memo.values(), fresh[-_MEMO_SIZE:]))


@settings(max_examples=200, deadline=None)
@given(some_formulas(1))
def test_to_text_matches_the_recursive_printer(fs):
    (f,) = fs
    assert to_text(f) == ref.to_text(f)


def test_to_text_renders_any_depth():
    p, n = Atom("p"), 3000
    negated, left_and, right_imp, right_and = p, p, p, p
    right_and_text = "p"
    for k in range(n):
        negated, left_and, right_imp = Not(negated), And(left_and, p), Implies(p, right_imp)
        right_and = And(p, right_and)
        right_and_text = f"p & ({right_and_text})" if k else "p & p"
    assert to_text(negated) == "~" * n + "p"
    assert to_text(left_and) == " & ".join(["p"] * (n + 1))
    assert to_text(right_imp) == " -> ".join(["p"] * (n + 1))
    assert to_text(right_and) == right_and_text


def test_a_formula_too_deep_to_compile_is_an_input_error():
    f = Atom("p")
    for _ in range(3000):
        f = Not(f)
    with pytest.raises(BeliefRevError, match="nested too deeply to evaluate"):
        entails(f, f, SIG_PQ)
