"""Propositional formulas over a fixed finite signature.

Entailment and equivalence are decided by an exhaustive truth-table sweep.
Each formula is compiled once into a short-circuiting function of a
valuation's bits; runs of & and of | compile flat. An atom outside the
signature is an input error (UnknownAtomError) wherever a formula is parsed
or compiled, reached or not. Nesting is bounded twice, both times as an
input error: evaluation at Python's compiler limit (ResourceBoundError),
and parsing at its recursion limit (FormulaSyntaxError). Called at the top
of a fresh Python 3.11.7 interpreter, parsing takes 496 bare parentheses,
331 levels of ``(p -> (p -> ... q))``, 993 ``~`` or a 994-term ``->``
chain, fewer under deeper callers (346 parentheses under 300 frames); runs
of & and | cost no depth. The syntax is plain ASCII, so files stay
hand-writable:

    ~  !      negation
    &         conjunction
    |         disjunction
    ->        implication      (right associative)
    <->       biconditional    (same precedence as ->)
    T  F      verum / falsum

Precedence, tightest first: ~, &, |, -> / <->. Parentheses as usual.
"""

from __future__ import annotations

import ast
import itertools
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

from .errors import (
    FormulaSyntaxError,
    ResourceBoundError,
    SignatureError,
    SignatureTooLargeError,
    UnknownAtomError,
)

# Truth tables enumerate 2**n valuations; refuse anything bigger.
ATOM_LIMIT = 20

_RESERVED = {"T", "F"}
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class Signature:
    """Ordered set of atom names; all semantic notions are relative to it."""

    __slots__ = ("atoms",)

    def __init__(self, atoms: Iterable[str]):
        atoms = tuple(atoms)
        if not atoms:
            raise SignatureError("a signature needs at least one atom")
        if len(atoms) > ATOM_LIMIT:
            raise SignatureTooLargeError(
                f"{len(atoms)} atoms exceed the enumeration bound of {ATOM_LIMIT}"
            )
        seen = set()
        for name in atoms:
            if not _NAME_RE.fullmatch(name):
                raise SignatureError(f"invalid atom name {name!r}")
            if name in _RESERVED:
                raise SignatureError(f"atom name {name!r} is reserved")
            if name in seen:
                raise SignatureError(f"duplicate atom {name!r}")
            seen.add(name)
        self.atoms = atoms

    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self) -> Iterator[str]:
        return iter(self.atoms)

    def __contains__(self, name: object) -> bool:
        return name in self.atoms

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Signature) and self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash(self.atoms)

    def __repr__(self) -> str:
        return f"Signature({', '.join(self.atoms)})"

    def index(self, name: str) -> int:
        try:
            return self.atoms.index(name)
        except ValueError:
            raise UnknownAtomError(name) from None

    def valuations(self) -> Iterator["Valuation"]:
        """All valuations, in a fixed order: first atom most significant,
        true before false. This order is the canonical world order used
        throughout the package."""
        for bits in itertools.product((True, False), repeat=len(self.atoms)):
            yield Valuation(self, bits)


@dataclass(frozen=True)
class Valuation:
    """Total truth assignment over a signature: bits are bools, one per
    atom in signature order."""

    signature: Signature
    bits: tuple[bool, ...]

    def __post_init__(self):
        if len(self.bits) != len(self.signature.atoms):
            raise ValueError("valuation must assign every atom of the signature")

    @classmethod
    def from_dict(cls, signature: Signature, assignment: Mapping[str, bool]) -> "Valuation":
        extra = set(assignment) - set(signature.atoms)
        if extra:
            raise UnknownAtomError(sorted(extra)[0])
        missing = [a for a in signature.atoms if a not in assignment]
        if missing:
            raise ValueError(f"valuation is missing atom {missing[0]!r}")
        return cls(signature, tuple(bool(assignment[a]) for a in signature.atoms))

    def __getitem__(self, atom: str) -> bool:
        return self.bits[self.signature.index(atom)]

    def as_dict(self) -> dict[str, bool]:
        return dict(zip(self.signature.atoms, self.bits))

    def true_atoms(self) -> tuple[str, ...]:
        return tuple(a for a, b in zip(self.signature.atoms, self.bits) if b)

    def describe(self) -> str:
        """Render as a literal conjunction, e.g. ``p & ~q``."""
        return " & ".join(
            a if b else f"~{a}" for a, b in zip(self.signature.atoms, self.bits)
        )

    def minterm(self) -> "Formula":
        """The full conjunction of literals true exactly at this valuation."""
        literals: list[Formula] = [
            Atom(a) if b else Not(Atom(a))
            for a, b in zip(self.signature.atoms, self.bits)
        ]
        out = literals[0]
        for lit in literals[1:]:
            out = And(out, lit)
        return out


class Formula:
    """Base class for formula AST nodes. Instances are immutable and compare
    structurally; use :func:`equivalent` for semantic comparison."""

    __slots__ = ()

    def atoms(self) -> frozenset[str]:
        """The names of the atoms occurring in this formula, found without
        recursion, so at any nesting depth."""
        names, stack = set(), [self]
        while stack:
            f = stack.pop()
            if isinstance(f, Atom):
                names.add(f.name)
            elif isinstance(f, (And, Or, Implies, Iff)):
                stack += (f.left, f.right)
            elif isinstance(f, Not):
                stack.append(f.operand)
            elif not isinstance(f, (Top, Bot)):
                raise TypeError(f"not a formula: {f!r}")
        return frozenset(names)

    def __str__(self) -> str:
        return to_text(self)


@dataclass(frozen=True, slots=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True, slots=True)
class Top(Formula):
    """Verum, written ``T``."""


@dataclass(frozen=True, slots=True)
class Bot(Formula):
    """Falsum, written ``F``."""


@dataclass(frozen=True, slots=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True, slots=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Iff(Formula):
    left: Formula
    right: Formula


TOP = Top()
BOT = Bot()


def eval_formula(formula: Formula, valuation: Valuation) -> bool:
    """Classical truth value of ``formula`` under a total valuation; an atom
    outside its signature raises :class:`UnknownAtomError`, reached or not."""
    return _compiled(formula, valuation.signature)(valuation.bits)


_MEMO_SIZE = 128
_memo: dict[tuple[int, tuple[str, ...]], tuple[Formula, Callable[[tuple], bool]]] = {}
_AT = {"lineno": 1, "col_offset": 0}  # compile() wants a position on every node
_BUILD = {
    Not: lambda a: ast.UnaryOp(ast.Not(), a[0], **_AT),
    And: lambda a: ast.BoolOp(ast.And(), a, **_AT),
    Or: lambda a: ast.BoolOp(ast.Or(), a, **_AT),
    Implies: lambda a: ast.BoolOp(ast.Or(), [_BUILD[Not](a), a[1]], **_AT),
    Iff: lambda a: ast.Compare(a[0], [ast.Eq()], a[1:], **_AT),
}


def _compile(formula: Formula, sig: Signature) -> Callable[[tuple], bool]:
    """Translate ``formula`` without recursion into a lambda over a bits tuple,
    evaluated left to right; the leftmost atom outside ``sig``, the one
    :func:`parse` would name, raises :class:`UnknownAtomError` at once."""
    index = {a: i for i, a in enumerate(sig.atoms)}
    # todo holds (node, None) to translate, or (build, n) to join the last n of done
    done, todo = [], [(formula, None)]
    while todo:
        f, n = todo.pop()
        if n is not None:
            done[-n:] = [f(done[-n:])]
        elif isinstance(f, Atom):
            if f.name not in index:
                raise UnknownAtomError(f.name)
            i = ast.Constant(index[f.name], **_AT)
            done.append(ast.Subscript(ast.Name("b", ast.Load(), **_AT), i, ast.Load(), **_AT))
        elif isinstance(f, (Top, Bot)):
            done.append(ast.Constant(isinstance(f, Top), **_AT))
        elif kind := next((k for k in _BUILD if isinstance(f, k)), None):
            run, stack = [], [f.operand] if kind is Not else [f.right, f.left]
            while stack:  # a run of & (or of |) joins into one flat and (or)
                g = stack.pop()
                if kind in (And, Or) and isinstance(g, kind):
                    stack += (g.right, g.left)
                else:
                    run.append(g)
            todo += [(_BUILD[kind], len(run))] + [(g, None) for g in reversed(run)]
        else:
            raise TypeError(f"not a formula: {f!r}")
    params = ast.arguments([], [ast.arg("b", **_AT)], None, [], [], None, [])
    try:
        code = compile(ast.Expression(ast.Lambda(params, done[0], **_AT)), "<formula>", "eval")
    except RecursionError:
        raise ResourceBoundError("formula is nested too deeply to evaluate") from None
    return eval(code, {})


def _compiled(formula: Formula, sig: Signature) -> Callable[[tuple], bool]:
    """:func:`_compile`, memoised by the formula's identity. An entry holds its
    formula, so the id is not reused while it lives; the oldest goes first."""
    key = (id(formula), sig.atoms)
    if key not in _memo:
        if len(_memo) >= _MEMO_SIZE:
            del _memo[next(iter(_memo))]
        _memo[key] = (formula, _compile(formula, sig))
    return _memo[key][1]


def entails(premise: Formula, conclusion: Formula, sig: Signature) -> bool:
    """True when every valuation over ``sig`` satisfying ``premise`` also
    satisfies ``conclusion`` (exhaustive sweep of all 2**n valuations)."""
    p, c = _compiled(premise, sig), _compiled(conclusion, sig)
    return all(c(v.bits) for v in sig.valuations() if p(v.bits))


def equivalent(left: Formula, right: Formula, sig: Signature) -> bool:
    """Logical equivalence relative to ``sig``: equal truth value under
    every valuation. Coincides with mutual entailment."""
    f, g = _compiled(left, sig), _compiled(right, sig)
    return all(f(v.bits) == g(v.bits) for v in sig.valuations())


# --- printing ---------------------------------------------------------------

# Higher binds tighter. -> and <-> share a level and associate to the right;
# & and | (_LEFT) associate to the left. The parser reads the same tables.
_PREC = {Implies: 1, Iff: 1, Or: 2, And: 3, Not: 4, Atom: 5, Top: 5, Bot: 5}
_SYMBOL = {And: "&", Or: "|", Implies: "->", Iff: "<->"}
_LEFT = (And, Or)


def _prec(f: Formula) -> int:
    return _PREC[type(f)]


def _pushed(child: Formula, parenthesised: bool) -> tuple:
    """Stack entries that print ``child``, in reverse of their print order."""
    return (")", child, "(") if parenthesised else (child,)


def to_text(formula: Formula) -> str:
    """Render with the minimum parentheses that make reparsing reproduce the
    same tree. Text pieces and subformulas wait on an explicit stack, so any
    nesting depth renders, in time linear in the output."""
    parts: list[str] = []
    stack: list = [formula]
    while stack:
        f = stack.pop()
        if isinstance(f, str):
            parts.append(f)
        elif isinstance(f, Atom):
            parts.append(f.name)
        elif isinstance(f, (Top, Bot)):
            parts.append("T" if isinstance(f, Top) else "F")
        elif isinstance(f, Not):
            parts.append("~")
            stack.extend(_pushed(f.operand, _prec(f.operand) < _PREC[Not]))
        else:
            own = _prec(f)
            if isinstance(f, _LEFT):
                # left associative: parenthesise an equal-level right child
                left_paren, right_paren = _prec(f.left) < own, _prec(f.right) <= own
            else:
                # right associative: parenthesise an equal-level left child
                left_paren, right_paren = _prec(f.left) <= own, _prec(f.right) < own
            stack.extend(_pushed(f.right, right_paren))
            stack.append(f" {_SYMBOL[type(f)]} ")
            stack.extend(_pushed(f.left, left_paren))
    return "".join(parts)


# --- parsing ----------------------------------------------------------------

# One scanner: an operator or punctuation mark, a word, or (group 3) the first
# character that is neither. Whitespace matches no group and is skipped.
_OPERATORS = "|".join(map(re.escape, _SYMBOL.values()))
_TOKEN_RE = re.compile(rf"({_OPERATORS}|[()~!])|([A-Za-z_][A-Za-z0-9_]*)|(\S)")
_KIND = {symbol: kind for kind, symbol in _SYMBOL.items()}


class _Parser:
    """Precedence climbing (Pratt 1973) over the printer's ``_PREC`` and
    ``_LEFT``: one method per operand, one per run of binary operators."""

    def __init__(self, text: str, sig: Signature):
        self.sig = sig
        self.tokens: list[tuple[str, int]] = []  # (text, 1-based position)
        for m in _TOKEN_RE.finditer(text):
            if m.lastindex == 3:
                raise FormulaSyntaxError(f"unexpected character {m[3]!r}", m.start() + 1)
            self.tokens.append((m[0], m.start() + 1))
        self.tokens.append(("", len(text) + 1))
        self.i = 0

    def binary(self, level: int) -> Formula:
        """An operand followed by the binary operators that bind at ``level``
        or tighter; a left-associative one takes a tighter right operand."""
        left = self.unary()
        while (kind := _KIND.get(self.tokens[self.i][0])) and _PREC[kind] >= level:
            self.i += 1
            left = kind(left, self.binary(_PREC[kind] + (kind in _LEFT)))
        return left

    def unary(self) -> Formula:
        """A negation, a parenthesised formula, a constant or an atom."""
        token, at = self.tokens[self.i]
        if not token:  # the end marker is never consumed
            raise FormulaSyntaxError("unexpected end of input", at)
        self.i += 1
        if token in ("~", "!"):
            return Not(self.unary())
        if token == "(":
            inner = self.binary(0)
            if self.tokens[self.i][0] != ")":
                raise FormulaSyntaxError("expected ')'", self.tokens[self.i][1])
            self.i += 1
            return inner
        if token in _RESERVED:
            return TOP if token == "T" else BOT
        if _NAME_RE.match(token):
            if token not in self.sig:
                raise UnknownAtomError(token)
            return Atom(token)
        raise FormulaSyntaxError(f"unexpected token {token!r}", at)


def parse(text: str, sig: Signature) -> Formula:
    """Parse formula text relative to a signature by the precedence and
    associativity that :func:`to_text` prints with.

    Raises :class:`FormulaSyntaxError` with a 1-based character position for
    malformed input or nesting past the recursion limit (bounds measured in
    the module docstring) and :class:`UnknownAtomError` for undeclared atoms.
    """
    parser = _Parser(text, sig)
    try:
        formula = parser.binary(0)
    except RecursionError:
        raise FormulaSyntaxError(
            "formula is nested too deeply", parser.tokens[parser.i][1]
        ) from None
    token, at = parser.tokens[parser.i]
    if token:
        raise FormulaSyntaxError(f"unexpected token {token!r}", at)
    return formula
