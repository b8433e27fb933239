"""The recursive formula evaluator and the truth-table sweeps built on it,
kept as an independent reference for the compiled ones in
``beliefrev.formula``, and the recursive printer, the reference for the
explicit-stack ``to_text``, and the recursive-descent parser, the reference
for the precedence-climbing ``parse``."""

from __future__ import annotations

import re

from beliefrev.errors import FormulaSyntaxError, UnknownAtomError
from beliefrev.formula import (
    BOT,
    TOP,
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
    _NAME_RE,
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


def check_atoms(sig: Signature, *formulas: Formula) -> None:
    """Raise :class:`UnknownAtomError` for the leftmost atom outside ``sig``,
    the one ``parse`` would name, or :class:`TypeError` at a node that is
    not a formula, whichever comes first from the left."""
    for formula in formulas:
        if isinstance(formula, Atom):
            if formula.name not in sig:
                raise UnknownAtomError(formula.name)
        elif isinstance(formula, Not):
            check_atoms(sig, formula.operand)
        elif isinstance(formula, (And, Or, Implies, Iff)):
            check_atoms(sig, formula.left, formula.right)
        elif not isinstance(formula, (Top, Bot)):
            raise TypeError(f"not a formula: {formula!r}")


def entails(premise: Formula, conclusion: Formula, sig: Signature) -> bool:
    """True when every valuation over ``sig`` satisfying ``premise`` also
    satisfies ``conclusion`` (exhaustive sweep of all 2**n valuations)."""
    check_atoms(sig, premise, conclusion)
    return all(
        eval_formula(conclusion, v)
        for v in sig.valuations()
        if eval_formula(premise, v)
    )


def equivalent(left: Formula, right: Formula, sig: Signature) -> bool:
    """Logical equivalence relative to ``sig``: equal truth value under
    every valuation. Coincides with mutual entailment."""
    check_atoms(sig, left, right)
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


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<arrow><->|->)|(?P<punct>[()~!&|])|(?P<word>[A-Za-z_][A-Za-z0-9_]*))"
)


class _Parser:
    def __init__(self, text: str, sig: Signature):
        self.sig = sig
        self.tokens: list[tuple[str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                bad_at = pos + (len(text[pos:]) - len(stripped))
                raise FormulaSyntaxError(
                    f"unexpected character {stripped[0]!r}", bad_at + 1
                )
            token = m.group("arrow") or m.group("punct") or m.group("word")
            # 1-based position of the token itself (the match may eat spaces)
            self.tokens.append((token, m.end(0) - len(token) + 1))
            pos = m.end(0)
        self.tokens.append(("", len(text) + 1))
        self.i = 0

    def peek(self) -> str:
        return self.tokens[self.i][0]

    def pos(self) -> int:
        return self.tokens[self.i][1]

    def advance(self) -> str:
        token = self.peek()
        self.i += 1
        return token

    def parse(self) -> Formula:
        f = self.expr()
        if self.peek():
            raise FormulaSyntaxError(f"unexpected token {self.peek()!r}", self.pos())
        return f

    def expr(self) -> Formula:
        left = self.or_expr()
        if self.peek() in ("->", "<->"):
            op = self.advance()
            right = self.expr()
            return Implies(left, right) if op == "->" else Iff(left, right)
        return left

    def or_expr(self) -> Formula:
        out = self.and_expr()
        while self.peek() == "|":
            self.advance()
            out = Or(out, self.and_expr())
        return out

    def and_expr(self) -> Formula:
        out = self.unary()
        while self.peek() == "&":
            self.advance()
            out = And(out, self.unary())
        return out

    def unary(self) -> Formula:
        if self.peek() in ("~", "!"):
            self.advance()
            return Not(self.unary())
        return self.primary()

    def primary(self) -> Formula:
        token = self.peek()
        if token == "(":
            self.advance()
            inner = self.expr()
            if self.peek() != ")":
                raise FormulaSyntaxError("expected ')'", self.pos())
            self.advance()
            return inner
        if token == "T":
            self.advance()
            return TOP
        if token == "F":
            self.advance()
            return BOT
        if token and _NAME_RE.fullmatch(token):
            if token not in self.sig:
                raise UnknownAtomError(token)
            self.advance()
            return Atom(token)
        if not token:
            raise FormulaSyntaxError("unexpected end of input", self.pos())
        raise FormulaSyntaxError(f"unexpected token {token!r}", self.pos())


def parse(text: str, sig: Signature) -> Formula:
    """Parse formula text relative to a signature.

    Raises :class:`FormulaSyntaxError` with a character position for
    malformed or too deeply nested input and :class:`UnknownAtomError` for
    undeclared atoms.
    """
    parser = _Parser(text, sig)
    try:
        return parser.parse()
    except RecursionError:
        raise FormulaSyntaxError("formula is nested too deeply", parser.pos()) from None
