import random

import pytest

from beliefrev import Signature, Valuation, entails, equivalent, eval_formula, parse
from beliefrev.errors import (
    FormulaSyntaxError,
    SignatureError,
    SignatureTooLargeError,
    UnknownAtomError,
)
from beliefrev.formula import And, Atom, BOT, Iff, Implies, Not, Or, TOP, to_text
from helpers import SIG_PQ, random_formula


def val(p, q):
    return Valuation(SIG_PQ, (bool(p), bool(q)))


# --- signature ----------------------------------------------------------------


def test_signature_invariants():
    for atoms in ((), ("p", "p"), ("T",), ("not a name",)):
        with pytest.raises(SignatureError) as caught:
            Signature(atoms)
        assert isinstance(caught.value, ValueError)
    with pytest.raises(SignatureTooLargeError):
        Signature(tuple(f"a{i}" for i in range(21)))
    assert len(Signature(tuple(f"a{i}" for i in range(20)))) == 20


def test_valuation_order_is_deterministic():
    vals = list(SIG_PQ.valuations())
    assert [v.bits for v in vals] == [
        (True, True), (True, False), (False, True), (False, False)
    ]
    assert vals[1].describe() == "p & ~q"
    assert vals[1]["p"] and not vals[1]["q"]


def test_valuation_from_dict_totality():
    v = Valuation.from_dict(SIG_PQ, {"p": True, "q": False})
    assert v.bits == (True, False)
    with pytest.raises(ValueError):
        Valuation.from_dict(SIG_PQ, {"p": True})
    with pytest.raises(UnknownAtomError):
        Valuation.from_dict(SIG_PQ, {"p": True, "q": False, "r": True})


# --- grammar ------------------------------------------------------------------


def test_parse_basic_connectives():
    assert parse("p & ~q", SIG_PQ) == And(Atom("p"), Not(Atom("q")))
    assert parse("p | !p", SIG_PQ) == Or(Atom("p"), Not(Atom("p")))
    assert parse("p -> (q <-> p)", SIG_PQ) == Implies(Atom("p"), Iff(Atom("q"), Atom("p")))


def test_parse_precedence_and_constants():
    assert parse("~p & q | p", SIG_PQ) == Or(And(Not(Atom("p")), Atom("q")), Atom("p"))
    assert parse("p -> q -> p", SIG_PQ) == Implies(Atom("p"), Implies(Atom("q"), Atom("p")))
    assert parse("T & F", SIG_PQ) == And(TOP, BOT)
    assert parse("((p))", SIG_PQ) == Atom("p")


def test_parse_errors_carry_position():
    with pytest.raises(FormulaSyntaxError) as err:
        parse("p & & q", SIG_PQ)
    assert err.value.position == 5
    with pytest.raises(FormulaSyntaxError):
        parse("(p", SIG_PQ)
    with pytest.raises(FormulaSyntaxError):
        parse("", SIG_PQ)
    with pytest.raises(FormulaSyntaxError):
        parse("p @ q", SIG_PQ)
    with pytest.raises(FormulaSyntaxError, match="nested too deeply"):
        parse("(" * 600 + "p" + ")" * 600, SIG_PQ)
    with pytest.raises(UnknownAtomError) as unk:
        parse("p & r", SIG_PQ)
    assert unk.value.atom == "r"


def test_print_parse_round_trip_is_structural():
    rng = random.Random(7)
    samples = [random_formula(rng, SIG_PQ) for _ in range(300)]
    samples += [
        And(Atom("p"), And(Atom("q"), Atom("p"))),
        And(And(Atom("p"), Atom("q")), Atom("p")),
        Implies(Implies(Atom("p"), Atom("q")), Atom("p")),
        Implies(Atom("p"), Iff(Atom("q"), Atom("p"))),
        Not(And(Atom("p"), Atom("q"))),
        Not(Not(Atom("p"))),
        Or(Atom("p"), Or(Atom("q"), Atom("p"))),
    ]
    for formula in samples:
        assert parse(to_text(formula), SIG_PQ) == formula


# --- evaluation ---------------------------------------------------------------


def test_eval_examples():
    assert eval_formula(parse("p & q", SIG_PQ), val(1, 0)) is False
    assert eval_formula(TOP, val(0, 0)) is True
    assert eval_formula(parse("~p | q", SIG_PQ), val(1, 1)) is True
    assert eval_formula(parse("p <-> q", SIG_PQ), val(0, 0)) is True
    assert eval_formula(parse("p -> q", SIG_PQ), val(1, 0)) is False


def test_eval_substitution_of_equivalent_subformulas():
    # replacing a subformula by an equivalent one never changes truth values
    rng = random.Random(11)
    for _ in range(200):
        formula = random_formula(rng, SIG_PQ)
        doubled = Not(Not(formula))
        padded = Or(formula, BOT)
        for v in SIG_PQ.valuations():
            reference = eval_formula(formula, v)
            assert eval_formula(doubled, v) == reference
            assert eval_formula(padded, v) == reference


# --- entailment and equivalence -----------------------------------------------


def test_entails_examples():
    p, q = Atom("p"), Atom("q")
    assert entails(And(p, q), p, SIG_PQ)
    assert not entails(p, And(p, q), SIG_PQ)
    assert entails(BOT, parse("p & ~p", SIG_PQ), SIG_PQ)
    assert entails(BOT, q, SIG_PQ)


def test_equivalent_examples():
    assert equivalent(parse("p | ~p", SIG_PQ), TOP, SIG_PQ)
    assert not equivalent(Atom("p"), Atom("q"), SIG_PQ)
    assert equivalent(parse("~(p & q)", SIG_PQ), parse("~p | ~q", SIG_PQ), SIG_PQ)


def test_entails_rejects_atoms_outside_signature():
    other = Signature(("p", "q", "r"))
    stray = parse("r", other)
    with pytest.raises(UnknownAtomError):
        entails(stray, Atom("p"), SIG_PQ)


def test_entailment_is_a_preorder_and_equivalence_matches():
    rng = random.Random(3)
    pool = [random_formula(rng, SIG_PQ, depth=2) for _ in range(12)]
    for a in pool:
        assert entails(a, a, SIG_PQ)
    for a in pool:
        for b in pool:
            assert equivalent(a, b, SIG_PQ) == (
                entails(a, b, SIG_PQ) and entails(b, a, SIG_PQ)
            )
            for c in pool:
                if entails(a, b, SIG_PQ) and entails(b, c, SIG_PQ):
                    assert entails(a, c, SIG_PQ)


def test_equivalence_is_an_equivalence_relation():
    rng = random.Random(5)
    pool = [random_formula(rng, SIG_PQ, depth=2) for _ in range(10)]
    for a in pool:
        assert equivalent(a, a, SIG_PQ)
    for a in pool:
        for b in pool:
            assert equivalent(a, b, SIG_PQ) == equivalent(b, a, SIG_PQ)
            for c in pool:
                if equivalent(a, b, SIG_PQ) and equivalent(b, c, SIG_PQ):
                    assert equivalent(a, c, SIG_PQ)
