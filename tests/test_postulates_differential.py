"""Differential test: the postulate layer against its loop reference.

``reference_postulates`` holds the original per-pair loops and nested label
quantifiers. Every report here must match it exactly, witness order
included, and every error must match in type and message.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_postulates as reference
from beliefrev import (
    SEMANTIC_CHECKS,
    PGraph,
    PreferenceModel,
    Signature,
    World,
    canonical_model,
    prefix,
)
from beliefrev.errors import GraphCycleError, GraphSelfLoopError
from beliefrev.formula import Atom
from beliefrev.pgraph import enumerate_pgraphs
from beliefrev.postulates import CONDITION_CHECKS
from beliefrev.semantics import worlds_for_signature
from beliefrev.transforms import null_transform
from helpers import SIG_PQ, SIG_PQR, f, graph, pool, preorder_models_on_trio


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the error itself is the outcome compared
        return type(exc), str(exc)


def assert_same_checks(before, by, after):
    for name, check in SEMANTIC_CHECKS.items():
        expected = outcome(reference.SEMANTIC_CHECKS[name], before, by, after)
        assert outcome(check, before, by, after) == expected, name


def assert_same_conditions(before, by, after, sig=SIG_PQ):
    for name, cond in CONDITION_CHECKS.items():
        expected = outcome(reference.CONDITION_CHECKS[name], before, by, after, sig)
        assert outcome(cond, before, by, after, sig) == expected, name


def test_two_node_sweep_matches_the_loop_reference():
    for g in enumerate_pgraphs(pool(), 2):
        base = canonical_model(g, SIG_PQ)
        for by in pool():
            for transform in (prefix, null_transform):
                transformed = transform(g, by)
                assert_same_conditions(g, by, transformed)
                assert_same_checks(base, by, canonical_model(transformed, SIG_PQ))


def test_trio_preorder_pairs_match_the_loop_reference():
    models = preorder_models_on_trio()
    for before in models:
        for after in models:
            for by in pool():
                assert_same_checks(before, by, after)


def test_errors_match_the_loop_reference():
    # Cyclic and self-looped graphs cannot be built, so no checker sees them.
    with pytest.raises(GraphCycleError):
        PGraph({"a": Atom("p"), "b": Atom("q")}, [("a", "b"), ("b", "a")])
    with pytest.raises(GraphSelfLoopError):
        PGraph({"a": Atom("p")}, [("a", "a")])
    g = graph({"a": "p", "b": "q"}, [("a", "b")])
    unknown = Atom("r")
    assert_same_conditions(g, unknown, g)

    trio = preorder_models_on_trio()[0]
    short = trio.restricted_to(("w1", "w2"))
    assert_same_checks(trio, f("p"), short)
    assert_same_checks(trio, unknown, trio)


def closed(relation: np.ndarray) -> np.ndarray:
    """Reflexive transitive closure by Warshall's algorithm."""
    out = relation | np.eye(len(relation), dtype=bool)
    for k in range(len(out)):
        out |= out[:, [k]] & out[[k], :]
    return out


def shuffled(n: int):
    """A permutation of range(n) that is not the identity when n > 1."""
    return st.permutations(range(n)).filter(lambda p: n < 2 or list(p) != sorted(p))


@st.composite
def revision_triples(draw):
    """A random preorder, a pool formula and a second random preorder over
    the same worlds. Ids are not listed in sorted order, and the second
    model lists its worlds in another order than the first."""
    n = draw(st.integers(1, 6))
    names = [f"w{i}" for i in draw(shuffled(n))]
    valuations = draw(st.lists(st.sampled_from(list(SIG_PQ.valuations())), min_size=n, max_size=n))
    worlds = [World(name, v) for name, v in zip(names, valuations)]

    def preorder() -> np.ndarray:
        cells = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
        return closed(np.array(cells, dtype=bool).reshape(n, n))

    before = PreferenceModel(worlds, preorder())
    after = PreferenceModel([worlds[i] for i in draw(shuffled(n))], preorder())
    return before, draw(st.sampled_from(pool())), after


@settings(max_examples=100, deadline=None)
@given(revision_triples())
def test_checkers_match_the_loop_reference_on_permuted_models(triple):
    assert_same_checks(*triple)


# Pool labels over p, q, r, with the constants and r so that labels can be
# trivial and need not be equivalent to any p, q formula.
LABELS_PQR = pool(SIG_PQR) + tuple(f(t, SIG_PQR) for t in ("r", "q | ~r", "T", "F"))


@st.composite
def pgraphs(draw, nodes=(0, 4)):
    """A graph of ``nodes[0]`` to ``nodes[1]`` nodes labelled from
    ``LABELS_PQR``. Node ids are not listed in sorted order, and edges only
    run forward along a random ranking of the nodes, so every draw is a
    strict partial order."""
    n = draw(st.integers(*nodes))
    ids = [f"n{i}" for i in draw(shuffled(n))]
    labels = draw(st.lists(st.sampled_from(LABELS_PQR), min_size=n, max_size=n))
    rank = draw(st.permutations(range(n)))
    forward = [(a, b) for a in range(n) for b in range(n) if rank[a] < rank[b]]
    keep = draw(st.lists(st.booleans(), min_size=len(forward), max_size=len(forward)))
    edges = [(ids[a], ids[b]) for (a, b), on in zip(forward, keep) if on]
    return PGraph(dict(zip(ids, labels)), edges)


@st.composite
def condition_triples(draw, nodes=(0, 4)):
    """A random graph, a pool formula, and the graph's prefix, the graph
    itself, or an independent random graph."""
    before, by = draw(pgraphs(nodes)), draw(st.sampled_from(LABELS_PQR))
    after = st.sampled_from([prefix(before, by), null_transform(before, by)])
    return before, by, draw(st.one_of(after, pgraphs(nodes)))


# From 5 to 9 nodes, node sets are wider than a byte and predecessor chains
# longer than in the small graphs.
@pytest.mark.parametrize("nodes", [(0, 4), (5, 9)], ids=["up to 4 nodes", "5 to 9 nodes"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_conditions_match_the_loop_reference_on_random_graphs(nodes, data):
    assert_same_conditions(*data.draw(condition_triples(nodes)), sig=SIG_PQR)


def wide_triples(n: int):
    """A 2-node graph over n atoms, a revision formula, and two transformed
    graphs: its prefix and an independent 2-node graph."""
    sig = Signature(tuple(f"a{i}" for i in range(n)))
    before = graph({"x": "a0 | a5", "y": f"a3 & ~a{n - 1}"}, [("x", "y")], sig)
    by = f("a1 -> a2", sig)
    other = graph({"u": f"a3 & ~a{n - 1}", "v": "a0 | a5 | a9"}, [("u", "v")], sig)
    return sig, [(before, by, prefix(before, by)), (before, by, other)]


def test_conditions_at_12_atoms_match_the_loop_reference():
    sig, triples = wide_triples(12)
    for triple in triples:
        assert_same_conditions(*triple, sig=sig)


def test_conditions_at_16_atoms_build_no_canonical_worlds():
    sig, triples = wide_triples(16)
    cached = worlds_for_signature.cache_info()
    for triple in triples:
        for name in ("dp1", "dp2", "dp3", "dp4", "ind"):
            CONDITION_CHECKS[name](*triple, sig)
    assert worlds_for_signature.cache_info() == cached
