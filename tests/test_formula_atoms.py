"""Atoms: ``Formula.atoms()`` walks without recursion, and the compiler
names the leftmost unknown atom, with no hash order."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beliefrev
from beliefrev.errors import UnknownAtomError
from beliefrev.formula import BOT, TOP, And, Atom, Iff, Implies, Not, Or, to_text
from beliefrev.formula import _compiled
from helpers import SIG_PQ, oracle_atoms

NAME_UNKNOWN = """
from beliefrev import Signature, entails
from beliefrev.errors import UnknownAtomError
from beliefrev.formula import And, Atom
try:
    entails(And(Atom("xa"), Atom("yb")), Atom("p"), Signature(("p", "q")))
except UnknownAtomError as exc:
    print(exc.atom)
"""


def test_entails_names_the_leftmost_unknown_atom_under_every_hash_seed():
    src = str(Path(beliefrev.__file__).parent.parent)
    named = []
    for seed in range(1, 7):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", NAME_UNKNOWN],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        named.append(done.stdout.strip())
    assert named == ["xa"] * 6


def test_atoms_of_a_5000_deep_chain():
    chain = Atom("p")
    for _ in range(5000):
        chain = And(chain, Atom("p"))
    assert chain.atoms() == {"p"}


def test_a_node_that_is_not_a_formula_is_a_type_error():
    with pytest.raises(TypeError):
        Not("p").atoms()


def formulas():
    leaves = st.one_of(
        st.sampled_from(("p", "q", "r", "xa", "yb")).map(Atom), st.just(TOP), st.just(BOT)
    )

    def extend(sub):
        binary = st.tuples(st.sampled_from((And, Or, Implies, Iff)), sub, sub)
        return st.one_of(sub.map(Not), binary.map(lambda t: t[0](t[1], t[2])))

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(formulas())
def test_atoms_match_the_oracle_and_the_leftmost_unknown_atom_is_named(formula):
    assert formula.atoms() == oracle_atoms(formula)
    words = re.findall(r"[A-Za-z_][A-Za-z0-9_]*", to_text(formula))
    unknown = [w for w in words if w not in ("T", "F") and w not in SIG_PQ]
    if not unknown:
        _compiled(formula, SIG_PQ)
        return
    with pytest.raises(UnknownAtomError) as caught:
        _compiled(formula, SIG_PQ)
    assert caught.value.atom == unknown[0]
