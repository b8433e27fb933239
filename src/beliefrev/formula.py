"""Propositional formulas over a fixed finite signature.

Entailment and equivalence are decided by an exhaustive truth-table sweep.
Each formula is compiled once into a short-circuiting function of a
valuation's bits; runs of & and of | compile flat. The same function
builds, on request, the formula's truth table as one int of 2**n bits. An
atom outside the signature is an input error (UnknownAtomError) wherever a
formula is parsed or compiled, reached or not. Nesting is bounded twice,
both times as an input error: parsing by a fixed budget
(FormulaSyntaxError), which takes 496 bare parentheses, 331 levels of
``(p -> (p -> ... q))``, 993 ``~`` or a 994-term ``->`` chain at any
caller depth, runs of & and | costing none; and evaluation at Python's
compiler limit (ResourceBoundError). The syntax is plain ASCII, so files
stay hand-writable:

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
import operator
import re
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

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

    __slots__ = ("atoms", "literals")

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
        self.literals = tuple((f"~{a}", a) for a in atoms)  # indexed by a bit

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
        throughout the package. The rows are built in C, unchecked: each has
        the signature's length by construction."""
        rows = zip(itertools.repeat(self), _rows(self))
        return map(tuple.__new__, itertools.repeat(Valuation), rows)


def _rows(sig: Signature) -> Iterator[tuple[bool, ...]]:
    """The bits of :meth:`Signature.valuations`, in its order."""
    return itertools.product((True, False), repeat=len(sig.atoms))


class Valuation(namedtuple("Valuation", "signature bits")):
    """Total truth assignment over a signature: bits are bools, one per
    atom in signature order. Immutable, and equal and hashed by
    ``(signature, bits)``; being a tuple, it also equals that plain tuple,
    has length 2 and iterates over its two fields."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __new__(cls, signature: Signature, bits: tuple[bool, ...]) -> "Valuation":
        if len(bits) != len(signature.atoms):
            raise ValueError("valuation must assign every atom of the signature")
        return tuple.__new__(cls, (signature, bits))

    def __getitem__(self, atom: str) -> bool:
        return self.bits[self.signature.index(atom)]

    def as_dict(self) -> dict[str, bool]:
        return dict(zip(self.signature.atoms, self.bits))

    def true_atoms(self) -> tuple[str, ...]:
        return tuple(itertools.compress(self.signature.atoms, self.bits))

    def describe(self) -> str:
        """Render as a literal conjunction, e.g. ``p & ~q``."""
        return " & ".join(map(operator.getitem, self.signature.literals, self.bits))

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


_BITS = operator.attrgetter("bits")
# One entry per (formula object, signature): [formula, compiled function, truth
# table or None until :func:`_table` asks]. At the 20-atom cap a table is 2**20
# bits, 128 KiB, so a full memo holds at most 16 MiB of tables.
_MEMO_SIZE = 128
_memo: dict[tuple[int, tuple[str, ...]], list] = {}
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
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


def _entry(formula: Formula, sig: Signature) -> list:
    """The memo entry of ``formula`` under ``sig``, keyed by the formula's
    identity. An entry holds its formula, so the id is not reused while it
    lives; the oldest goes first. A formula that raises is not entered."""
    key = (id(formula), sig.atoms)
    entry = _memo.get(key)
    if entry is None:
        if len(_memo) >= _MEMO_SIZE:
            del _memo[next(iter(_memo))]
        entry = _memo[key] = [formula, _compile(formula, sig), None]
    return entry


def _compiled(formula: Formula, sig: Signature) -> Callable[[tuple], bool]:
    """:func:`_compile`, memoised."""
    return _entry(formula, sig)[1]


def _table(formula: Formula, sig: Signature) -> int:
    """The truth table of ``formula`` as an int: bit k is its value at the
    k-th valuation of :meth:`Signature.valuations`. Built once per memo
    entry, in time linear in 2**n, by one call of the compiled function per
    row and one base-2 parse of the resulting digits, last row first."""
    entry = _entry(formula, sig)
    if entry[2] is None:
        values = bytes(map(entry[1], _rows(sig)))
        entry[2] = int(values[::-1].translate(_DIGITS), 2)
    return entry[2]


def entails(premise: Formula, conclusion: Formula, sig: Signature) -> bool:
    """True when every valuation over ``sig`` satisfying ``premise`` also
    satisfies ``conclusion`` (exhaustive sweep of all 2**n valuations)."""
    p, c = _compiled(premise, sig), _compiled(conclusion, sig)
    return all(map(c, filter(p, map(_BITS, sig.valuations()))))


def equivalent(left: Formula, right: Formula, sig: Signature) -> bool:
    """Logical equivalence relative to ``sig``: equal truth value under
    every valuation. Coincides with mutual entailment."""
    f, g = _compiled(left, sig), _compiled(right, sig)
    a, b = itertools.tee(map(_BITS, sig.valuations()))  # buffers one row
    return all(map(operator.eq, map(f, a), map(g, b)))


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

# Tokens are operators, punctuation marks and words; whitespace separates
# them. The scan matches as many tokens as it can, so it ends at the first
# character that starts none.
_TOKEN = "|".join(map(re.escape, _SYMBOL.values())) + r"|[()~!]|[A-Za-z_][A-Za-z0-9_]*"
_TOKEN_RE = re.compile(_TOKEN)
_SCAN_RE = re.compile(rf"(?:\s*(?:{_TOKEN}))*\s*")
# Operator -> (node class, level, level of its right operand: tighter for _LEFT)
_BINARY = {s: (k, _PREC[k], _PREC[k] + (k in _LEFT)) for k, s in _SYMBOL.items()}
# The nesting a parse may hold: 2 per open parenthesis, 1 per pending negation
# or right operand. 993 keeps the bounds the recursive parser had at top level.
_NESTING_BUDGET = 993
_OPEN, _NEG = "(", "~"  # pending stack entries, besides operator triples
_PENDING = {"(": _OPEN, "~": _NEG, "!": _NEG}


def _error(message: str, text: str, i: int) -> FormulaSyntaxError:
    """``message`` at token ``i``'s 1-based position; the end marker's is past the text."""
    starts = [m.start() for m in itertools.islice(_TOKEN_RE.finditer(text), i + 1)]
    return FormulaSyntaxError(message, starts[i] + 1 if i < len(starts) else len(text) + 1)


def parse(text: str, sig: Signature) -> Formula:
    """Parse formula text relative to a signature by the precedence and
    associativity that :func:`to_text` prints with: precedence climbing
    (Pratt 1973) over the printer's ``_PREC`` and ``_LEFT``, with pending
    negations, parentheses and operators on an explicit stack.

    Raises :class:`FormulaSyntaxError` with a 1-based character position for
    malformed input or nesting past ``_NESTING_BUDGET`` (the bounds are in
    the module docstring) and :class:`UnknownAtomError` for undeclared atoms.
    """
    end = _SCAN_RE.match(text).end()
    if end < len(text):
        raise FormulaSyntaxError(f"unexpected character {text[end]!r}", end + 1)
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")  # the end marker, never consumed
    stack: list = []  # _OPEN, _NEG or (node class, left operand, right level)
    opens = i = 0  # nesting spent is len(stack) + opens
    while True:
        token = tokens[i]  # an operand is due
        i += 1
        if token in _PENDING:
            stack.append(_PENDING[token])
            opens += token == "("
            if len(stack) + opens > _NESTING_BUDGET:
                raise _error("formula is nested too deeply", text, i - 1)
            continue
        if token in _RESERVED:
            f = TOP if token == "T" else BOT
        elif token in sig.atoms:
            f = Atom(token)
        elif not token:
            raise _error("unexpected end of input", text, i - 1)
        elif token in _BINARY or token == ")":
            raise _error(f"unexpected token {token!r}", text, i - 1)
        else:
            raise UnknownAtomError(token)
        while True:  # f is a whole operand; an operator, ')' or the end is due
            while stack and stack[-1] is _NEG:
                stack.pop()
                f = Not(f)
            token = tokens[i]
            binary = _BINARY.get(token)
            # A pending operator whose right operand binds tighter than this
            # operator takes f; the end, ')' or a stray token closes them all.
            while stack and type(top := stack[-1]) is tuple and (not binary or binary[1] < top[2]):
                stack.pop()
                f = top[0](top[1], f)
            if binary:
                stack.append((binary[0], f, binary[2]))
                i += 1
                if len(stack) + opens > _NESTING_BUDGET:
                    raise _error("formula is nested too deeply", text, i - 1)
                break
            if not stack:
                if token:
                    raise _error(f"unexpected token {token!r}", text, i)
                return f
            if token != ")":  # the top is an open parenthesis
                raise _error("expected ')'", text, i)
            stack.pop()
            opens -= 1
            i += 1
