import copy
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_formula
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


def test_valuation_is_an_immutable_value():
    v = val(1, 0)
    for field in ("bits", "signature", "other"):
        with pytest.raises(AttributeError):
            setattr(v, field, (True, True))
    same = Valuation(Signature(["p", "q"]), (True, False))
    assert v == same and hash(v) == hash(same) and len({v, same}) == 1
    assert v != val(0, 0)
    assert v != Valuation(Signature(["q", "p"]), (True, False))
    with pytest.raises(ValueError, match=r"^valuation must assign every atom of the signature$"):
        Valuation(SIG_PQ, (True,))
    with pytest.raises(ValueError):
        v._replace(bits=(True,))
    assert v._replace(bits=(False, False)) == val(0, 0)
    assert repr(v) == "Valuation(signature=Signature(p, q), bits=(True, False))"


def test_valuation_copies_go_through_the_checked_constructor():
    v = val(0, 1)
    for back in (pickle.loads(pickle.dumps(v)), copy.deepcopy(v)):
        assert back == v and type(back) is Valuation
    rebuild, args = v.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[:2]
    assert rebuild(*args) == v
    with pytest.raises(ValueError):
        rebuild(Valuation, SIG_PQ, (True,))


def test_valuation_equals_its_plain_tuple():
    # the documented price of a tuple-backed record
    v = val(1, 1)
    assert v == (SIG_PQ, (True, True)) and hash(v) == hash((SIG_PQ, (True, True)))
    assert len(v) == 2 and tuple(v) == (SIG_PQ, (True, True))


def test_swept_valuations_equal_checked_ones():
    sig = Signature(["p", "q", "r"])
    rows = list(sig.valuations())
    bits = list(itertools.product((True, False), repeat=3))
    assert rows == [Valuation(sig, b) for b in bits]
    assert all(type(v) is Valuation and v.signature is sig for v in rows)
    assert [v.describe() for v in rows[5:7]] == ["~p & q & ~r", "~p & ~q & r"]


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


# The deepest text of each shape that parses; one level more is refused at
# the last occurrence of the token given, the one that crosses the budget.
NESTING_BOUNDS = {
    "parentheses": (496, lambda n: "(" * n + "p" + ")" * n, "("),
    "operand levels": (331, lambda n: "(p -> " * n + "q" + ")" * n, "("),
    "negations": (993, lambda n: "~" * n + "p", "~"),
    "-> terms": (994, lambda n: " -> ".join(["p"] * n), "->"),
}


def under_frames(frames, call):
    return call() if frames == 0 else under_frames(frames - 1, call)


@pytest.mark.parametrize("frames", [0, 300])
@pytest.mark.parametrize("shape", NESTING_BOUNDS)
def test_the_nesting_bounds_are_exact_at_any_caller_depth(shape, frames):
    n, text, crossing = NESTING_BOUNDS[shape]
    under_frames(frames, lambda: parse(text(n), SIG_PQ))
    deeper = text(n + 1)
    with pytest.raises(FormulaSyntaxError, match="nested too deeply") as err:
        under_frames(frames, lambda: parse(deeper, SIG_PQ))
    assert err.value.position == deeper.rfind(crossing) + 1


@pytest.mark.parametrize("kind", [And, Or])
def test_a_20000_term_left_associative_chain_parses_flat(kind):
    text = f" {'&' if kind is And else '|'} ".join(["p"] * 20000)
    f, terms = parse(text, SIG_PQ), 1
    while isinstance(f, kind):  # down the left spine, without recursion
        assert f.right == Atom("p")
        f, terms = f.left, terms + 1
    assert (f, terms) == (Atom("p"), 20000)


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


# --- the sweep's early exit ---------------------------------------------------


@st.composite
def signed_pairs(draw):
    """A signature of 1-6 atoms and two random formulas over it."""
    sig = Signature([f"a{i}" for i in range(draw(st.integers(1, 6)))])
    leaves = st.one_of(st.sampled_from(sig.atoms).map(Atom), st.sampled_from((TOP, BOT)))

    def extend(sub):
        binary = st.tuples(st.sampled_from((And, Or, Implies, Iff)), sub, sub)
        return st.one_of(sub.map(Not), binary.map(lambda t: t[0](t[1], t[2])))

    formulas = st.recursive(leaves, extend, max_leaves=10)
    return sig, draw(formulas), draw(formulas)


def drawn(sweep, *args):
    """The verdict of ``sweep(*args)`` and the rows it drew from
    ``Signature.valuations``, counted by a wrapper as the benchmark counts."""
    original, count = Signature.__dict__["valuations"], 0

    def counted(self):
        nonlocal count
        for row in original(self):
            count += 1
            yield row

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Signature, "valuations", counted)
        return sweep(*args), count


@settings(max_examples=150, deadline=None)
@given(signed_pairs())
def test_a_sweep_stops_at_its_first_counter_valuation(case):
    sig, f, g = case
    rows = [dict(zip(sig.atoms, bits)) for bits in itertools.product((True, False), repeat=len(sig))]
    truth = reference_formula.eval_formula
    for sweep, fails in (
        (equivalent, lambda row: truth(f, row) != truth(g, row)),
        (entails, lambda row: truth(f, row) and not truth(g, row)),
    ):
        stop = next((i for i, row in enumerate(rows) if fails(row)), None)
        expected = (True, len(rows)) if stop is None else (False, stop + 1)
        assert drawn(sweep, f, g, sig) == expected
        assert drawn(sweep, f, f, sig) == (True, len(rows))
