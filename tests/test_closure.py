"""The depth-first closure against the squaring it replaced and against
Warshall's algorithm, on small random relations and on model files of
hundreds to a thousand worlds; and the same-order shortcuts of model
equality and the world check."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_orders as reference
from beliefrev import PGraph, PreferenceModel, World
from beliefrev.errors import WorldSetMismatchError
from beliefrev.formula import TOP
from beliefrev.files import parse_model_file
from beliefrev.semantics import _aligned, transitive_closure
from helpers import all_equal_fixture, chain_fixture, oracle_closure


@st.composite
def relations(draw):
    """Random index pairs on 0-10 nodes plus one drawn cycle (a self-loop
    when it has one node), in shuffled order."""
    n = draw(st.integers(0, 10))
    if n == 0:
        return 0, []
    index = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=2 * n))
    cycle = draw(st.lists(index, max_size=n))
    pairs += list(zip(cycle, cycle[1:] + cycle[:1]))
    return n, draw(st.permutations(pairs))


@settings(max_examples=300, deadline=None)
@given(relations())
def test_closure_matches_squaring_and_warshall(relation):
    n, pairs = relation
    closed = transitive_closure(n, pairs)
    assert closed.dtype == bool and closed.shape == (n, n) and closed.flags.c_contiguous
    mat = np.zeros((n, n), dtype=bool)
    for a, b in pairs:
        mat[a, b] = True
    assert np.array_equal(closed, reference.transitive_closure(mat))
    assert np.array_equal(closed, oracle_closure(n, pairs))


def test_graph_matrix_stays_read_only():
    g = PGraph({"a": TOP, "b": TOP, "c": TOP}, {("a", "b"), ("b", "c")})
    assert g.matrix.tolist() == [[False, True, True], [False, False, True], [False] * 3]
    with pytest.raises(ValueError):
        g.matrix[0, 0] = True


def model_text(n_atoms, codes, edges, rng):
    """A model file with one world per valuation code and the generator
    edges as index pairs, the edge lines in shuffled order."""
    atoms = [f"p{i}" for i in range(n_atoms)]
    lines = ["atoms: " + " ".join(atoms)]
    for k, code in enumerate(codes):
        literals = [a if code >> i & 1 else f"~{a}" for i, a in enumerate(atoms)]
        lines.append(f"world w{k}: " + " & ".join(literals))
    edge_lines = [f"w{a} <= w{b}" for a, b in edges]
    rng.shuffle(edge_lines)
    return "\n".join(lines + edge_lines) + "\n"


def assert_model_file_closes(n_atoms, codes, edges, rng):
    _, model = parse_model_file(model_text(n_atoms, codes, edges, rng))
    expected = oracle_closure(len(codes), edges) | np.eye(len(codes), dtype=bool)
    assert np.array_equal(model.matrix, expected)
    return model


def test_a_1024_world_total_order_file_closes_like_warshall():
    rng = random.Random(7)
    order = list(range(1024))
    rng.shuffle(order)
    model = assert_model_file_closes(10, range(1024), list(zip(order, order[1:])), rng)
    assert model.tie_classes() == [[f"w{k}"] for k in order]


def test_a_300_world_file_with_tie_cycles_closes_like_warshall():
    rng = random.Random(11)
    worlds = list(range(300))
    rng.shuffle(worlds)
    groups, edges = [], []
    while worlds:
        k = rng.randint(1, 6)
        groups.append(worlds[:k])
        worlds = worlds[k:]
    for group in groups:
        edges += zip(group, group[1:] + group[:1])
    for _ in range(250):
        i, j = sorted(rng.sample(range(len(groups)), 2))
        edges.append((rng.choice(groups[i]), rng.choice(groups[j])))
    edges += [(rng.randrange(300), rng.randrange(300)) for _ in range(3)]
    model = assert_model_file_closes(9, rng.sample(range(512), 300), edges, rng)
    assert 1 < len(model.tie_classes()) < 300


def test_equality_and_world_check_on_reordered_and_revalued_worlds():
    m = chain_fixture()
    worlds = m.worlds
    same = PreferenceModel(worlds, m.matrix.copy())
    reordered = PreferenceModel(worlds[::-1], m.matrix[::-1, ::-1])
    reversed_chain = PreferenceModel(worlds[::-1], m.matrix)
    assert _aligned(m, same) is same.matrix
    assert np.array_equal(_aligned(m, reordered), m.matrix)
    assert np.array_equal(_aligned(reordered, m), reordered.matrix)
    assert np.array_equal(_aligned(m, reversed_chain), m.matrix.T)
    assert np.array_equal(_aligned(m, all_equal_fixture()), all_equal_fixture().matrix)
    assert m == same and m == reordered and reordered == m
    assert m != reversed_chain and m != all_equal_fixture()

    revalued = PreferenceModel(
        [World(w.id, worlds[(k + 1) % 4].valuation) for k, w in enumerate(worlds)], m.matrix
    )
    with pytest.raises(WorldSetMismatchError, match=r"^world 'w_pq' changed valuation$"):
        _aligned(m, revalued)
    assert m != revalued and revalued != m

    fewer = m.restricted_to(["w_pq", "w_q"])
    message = r"^models do not share a world set: \['w_0', 'w_p', 'w_pq', 'w_q'\] vs \['w_pq', 'w_q'\]$"
    with pytest.raises(WorldSetMismatchError, match=message):
        _aligned(m, fewer)
    assert m != fewer and fewer != m
