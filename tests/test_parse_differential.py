"""The precedence-climbing ``parse`` against the recursive-descent reference
in ``reference_formula``: equal trees, or the same error with the same
message, position and atom."""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_formula as ref
from beliefrev import BeliefRevError, parse
from beliefrev.formula import BOT, TOP, And, Atom, Iff, Implies, Not, Or, to_text
from helpers import SIG_PQR

WHITESPACE = ["", " ", "  ", "\t", "\n", " \u00a0", "\r\n"]


def outcome(parser, text):
    """The tree ``parser`` builds from ``text``, or what its error carries."""
    try:
        return parser(text, SIG_PQR)
    except BeliefRevError as exc:
        return type(exc), str(exc), getattr(exc, "position", None), getattr(exc, "atom", None)


def assert_same_outcome(text):
    assert outcome(parse, text) == outcome(ref.parse, text)


TOKENS = st.sampled_from(
    ["p", "q", "r", "zz", "x1", "_a", "T", "F", "Tx", "~", "!", "&", "|", "->", "<->",
     "(", ")", "@", "-", "<", "1", "<-", ">", "#", "é"]
)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(TOKENS, st.sampled_from(WHITESPACE)), max_size=24),
       st.sampled_from(WHITESPACE))
def test_token_soup_parses_like_the_reference(pieces, lead):
    assert_same_outcome(lead + "".join(token + gap for token, gap in pieces))


LEAVES = st.sampled_from([Atom("p"), Atom("q"), Atom("r"), Atom("zz"), TOP, BOT])
FORMULAS = st.recursive(
    LEAVES,
    lambda sub: st.one_of(
        sub.map(Not), *[st.builds(kind, sub, sub) for kind in (And, Or, Implies, Iff)]
    ),
    max_leaves=12,
)


@st.composite
def padded_texts(draw):
    """``to_text`` of a formula with extra parentheses around atoms,
    constants, parenthesised groups and the whole, and with whitespace
    between the tokens; the formula is drawn with it."""
    formula = draw(FORMULAS)
    opened, out = [], []
    for token in re.findall(r"<->|->|[()~&|]|\w+", to_text(formula)):
        extra = draw(st.integers(0, 2))
        if token == "(":
            opened.append(extra)
            out.append("(" * (1 + extra))
        elif token == ")":
            out.append(")" * (1 + opened.pop()))
        elif token[0].isalpha():
            out.append("(" * extra + token + ")" * extra)
        else:
            out.append(token)
        out.append(draw(st.sampled_from(WHITESPACE)))
    outer = draw(st.integers(0, 3))
    return formula, "(" * outer + "".join(out) + ")" * outer


@settings(max_examples=500, deadline=None)
@given(padded_texts())
def test_padded_printed_formulas_parse_like_the_reference(drawn):
    formula, text = drawn
    assert_same_outcome(text)
    if "zz" not in formula.atoms():
        assert parse(text, SIG_PQR) == formula


OPENERS = st.sampled_from(
    ["~", "!", "(", "~(", "(~", "(p -> ", "q -> ", "(q <-> ", "r | (", "(p & "]
)
CORES = st.sampled_from(["p", "zz", "q & ~r", "p -> q", "", "p)", "(p", "@", "p q", "T | F"])


@st.composite
def deep_texts(draw):
    """A short core inside up to 60 openers that mix ``~``, ``(`` and
    right-nested ``->``, closed by as many ``)`` as they opened, give or
    take one."""
    openers = draw(st.lists(OPENERS, max_size=60))
    closing = sum(o.count("(") for o in openers) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    return "".join(openers) + draw(CORES) + ")" * max(closing, 0)


@settings(max_examples=300, deadline=None)
@given(deep_texts())
def test_deeply_nested_texts_parse_like_the_reference(text):
    assert_same_outcome(text)
