"""One rule for atoms outside the signature: every entry point that evaluates
a formula raises :class:`UnknownAtomError` for its leftmost unknown atom,
also where evaluation would never reach it."""

import pytest

from beliefrev import Signature, Valuation, entails, equivalent, eval_formula
from beliefrev.errors import UnknownAtomError
from beliefrev.formula import BOT, TOP, And, Atom, Or, _memo, _table
from beliefrev.pgraph import PGraph, canonical_model, induce_model
from beliefrev.postulates import CONDITION_CHECKS, SEMANTIC_CHECKS, postulates
from beliefrev.semantics import lex_revise, min_worlds, natural_revise
from helpers import SIG_PQ, canonical_pq, chain_fixture

MODEL = chain_fixture()
P = Atom("p")


def labelled(f):
    return PGraph({"a": P, "b": f}, [("a", "b")])


ENTRY_POINTS = {
    "eval_formula": lambda f: eval_formula(f, Valuation(SIG_PQ, (True, False))),
    "satisfying": lambda f: MODEL.satisfying(f),
    "min_worlds": lambda f: min_worlds(MODEL, f),
    "lex_revise": lambda f: lex_revise(MODEL, f),
    "natural_revise": lambda f: natural_revise(MODEL, f),
    "postulates": lambda f: postulates(MODEL, f, MODEL),
    **{f"check_{name}": lambda f, check=check: check(MODEL, f, MODEL)
       for name, check in SEMANTIC_CHECKS.items()},
    "induce_model": lambda f: induce_model(labelled(f), canonical_pq()),
    "canonical_model": lambda f: canonical_model(labelled(f), SIG_PQ),
    "entails premise": lambda f: entails(f, TOP, SIG_PQ),
    "entails conclusion": lambda f: entails(BOT, f, SIG_PQ),
    "equivalent": lambda f: equivalent(P, f, SIG_PQ),
    **{f"cond_{name}": lambda f, cond=cond: cond(labelled(P), f, labelled(P), SIG_PQ)
       for name, cond in CONDITION_CHECKS.items()},
}

# Neither F & zz nor T | zz ever reaches zz when evaluated left to right.
UNREACHED = [
    (And(BOT, Atom("zz")), "zz"),
    (Or(TOP, Atom("zz")), "zz"),
    (Or(Atom("yy"), Atom("zz")), "yy"),
]


@pytest.mark.parametrize("formula, named", UNREACHED, ids=["F & zz", "T | zz", "yy | zz"])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_rejects_an_unknown_atom_before_evaluating(entry, formula, named):
    with pytest.raises(UnknownAtomError) as caught:
        ENTRY_POINTS[entry](formula)
    assert caught.value.atom == named


# Labels are checked after the revision formula, original labels before
# transformed ones: (original label, transformed label, atom named).
IN_LABELS = [(Atom("xx"), P, "xx"), (Atom("xx"), Atom("aa"), "xx")]


@pytest.mark.parametrize("original, transformed, named", IN_LABELS,
                         ids=["original label", "both labels"])
@pytest.mark.parametrize("cond", CONDITION_CHECKS)
def test_every_condition_names_the_leftmost_unknown_atom_in_a_label(cond, original, transformed, named):
    with pytest.raises(UnknownAtomError) as caught:
        CONDITION_CHECKS[cond](labelled(original), P, labelled(transformed), SIG_PQ)
    assert caught.value.atom == named


def test_a_formula_that_raises_is_not_memoised():
    f = And(BOT, Atom("zz"))
    for query in (lambda: entails(f, f, SIG_PQ), lambda: _table(f, SIG_PQ)):
        for _ in range(2):
            with pytest.raises(UnknownAtomError):
                query()
            assert all(entry is not f for entry, *_ in _memo.values())
    # the same object is accepted under a signature that declares zz
    assert entails(f, f, Signature(("zz",)))
    assert _table(f, Signature(("zz",))) == 0
