"""The recursive formula evaluator and the truth-table sweeps built on it,
kept as an independent reference for the compiled ones in
``beliefrev.formula``, and the recursive printer, the reference for the
explicit-stack ``to_text``."""

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
    _prec,
    _PREC,
    _SYMBOL,
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


def to_text(formula: Formula) -> str:
    """Render with the minimum parentheses that make reparsing reproduce the
    same tree."""
    if isinstance(formula, Atom):
        return formula.name
    if isinstance(formula, Top):
        return "T"
    if isinstance(formula, Bot):
        return "F"
    if isinstance(formula, Not):
        inner = to_text(formula.operand)
        if _prec(formula.operand) < _PREC[Not]:
            inner = f"({inner})"
        return f"~{inner}"
    own = _prec(formula)
    left, right = formula.left, formula.right
    left_text = to_text(left)
    right_text = to_text(right)
    if isinstance(formula, (And, Or)):
        # left associative: parenthesise an equal-level right child
        if _prec(left) < own:
            left_text = f"({left_text})"
        if _prec(right) <= own:
            right_text = f"({right_text})"
    else:
        # right associative: parenthesise an equal-level left child
        if _prec(left) <= own:
            left_text = f"({left_text})"
        if _prec(right) < own:
            right_text = f"({right_text})"
    return f"{left_text} {_SYMBOL[type(formula)]} {right_text}"
