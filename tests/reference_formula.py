"""The recursive formula evaluator and the truth-table sweeps built on it,
kept as an independent reference for the compiled ones in
``beliefrev.formula``."""

from __future__ import annotations

from beliefrev.formula import (
    And,
    Atom,
    Bot,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Signature,
    Top,
    Valuation,
    _check_atoms,
)


def eval_formula(formula: Formula, valuation: Valuation) -> bool:
    """Classical truth value of ``formula`` under a total valuation."""
    if isinstance(formula, Atom):
        return valuation[formula.name]
    if isinstance(formula, Top):
        return True
    if isinstance(formula, Bot):
        return False
    if isinstance(formula, Not):
        return not eval_formula(formula.operand, valuation)
    if isinstance(formula, And):
        return eval_formula(formula.left, valuation) and eval_formula(formula.right, valuation)
    if isinstance(formula, Or):
        return eval_formula(formula.left, valuation) or eval_formula(formula.right, valuation)
    if isinstance(formula, Implies):
        return (not eval_formula(formula.left, valuation)) or eval_formula(formula.right, valuation)
    if isinstance(formula, Iff):
        return eval_formula(formula.left, valuation) == eval_formula(formula.right, valuation)
    raise TypeError(f"not a formula: {formula!r}")


def entails(premise: Formula, conclusion: Formula, sig: Signature) -> bool:
    """True when every valuation over ``sig`` satisfying ``premise`` also
    satisfies ``conclusion`` (exhaustive sweep of all 2**n valuations)."""
    _check_atoms(sig, premise, conclusion)
    return all(
        eval_formula(conclusion, v)
        for v in sig.valuations()
        if eval_formula(premise, v)
    )


def equivalent(left: Formula, right: Formula, sig: Signature) -> bool:
    """Logical equivalence relative to ``sig``: equal truth value under
    every valuation. Coincides with mutual entailment."""
    _check_atoms(sig, left, right)
    return all(
        eval_formula(left, v) == eval_formula(right, v) for v in sig.valuations()
    )
