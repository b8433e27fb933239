"""Graphs built from orders already closed.

``PGraph._closed`` takes a closed order handed in as it is and proves it
strict and transitive; ``enumerate_pgraphs`` builds through it. ``prefix``
and ``graph_from_preorder`` write orders that are closed by construction.
None of them runs a closure. These tests compare these paths with
construction from edges and with Warshall's closure, check that a matrix
failing the proof is refused, and pin the work the paths removed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beliefrev.formula
from beliefrev import PGraph, graph_from_preorder, prefix, sweep_harmony
from beliefrev.files import parse_graph_file
from beliefrev.formula import _MEMO_SIZE
from beliefrev.pgraph import _down_label, enumerate_pgraphs, induce_model
from helpers import (
    SIG_PQ,
    chain_fixture,
    f,
    oracle_closure,
    oracle_prec,
    pool,
    preorder_models_on_trio,
    random_pgraph,
)


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_the_closed_path_builds_the_graph_that_edges_build(rng):
    g = random_pgraph(rng, SIG_PQ, max_nodes=7)
    closed = PGraph._closed(g.labels, g.edges, g.matrix.copy())
    assert np.array_equal(closed.matrix, g.matrix) and not closed.matrix.flags.writeable
    assert closed.predecessors == g.predecessors
    assert closed.prec() == g.prec() == oracle_prec(g)
    assert closed == g and repr(closed) == repr(g)


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_a_prefixed_order_is_the_closure_of_the_prefixed_edges(rng):
    g = random_pgraph(rng, SIG_PQ, max_nodes=7)
    out = prefix(g, f("p | q"))
    assert out.node_ids == (g.fresh_node_id(), *g.node_ids)
    assert out.edges == g.edges | {(out.node_ids[0], n) for n in g.node_ids}
    index = {n: i for i, n in enumerate(out.node_ids)}
    expected = oracle_closure(len(out), [(index[a], index[b]) for a, b in out.edges])
    assert np.array_equal(out.matrix, expected)
    assert out == PGraph(out.labels, out.edges)


def test_a_closed_matrix_that_is_not_a_strict_order_is_refused():
    labels = {"a": f("p"), "b": f("q"), "c": f("p | q")}
    loop = np.zeros((3, 3), dtype=bool)
    loop[1, 1] = True
    with pytest.raises(ValueError, match="order puts node 'b' above itself"):
        PGraph._closed(labels, frozenset(), loop)
    cycle = np.zeros((3, 3), dtype=bool)
    cycle[0, 1] = cycle[1, 0] = True
    # Without its diagonal a cycle is not transitive.
    with pytest.raises(ValueError, match="not transitive: it lacks 'a' above 'a'"):
        PGraph._closed(labels, frozenset(), cycle)
    open_chain = np.zeros((3, 3), dtype=bool)
    open_chain[0, 1] = open_chain[1, 2] = True
    with pytest.raises(ValueError, match="not transitive: it lacks 'a' above 'c'"):
        PGraph._closed(labels, frozenset({("a", "b"), ("b", "c")}), open_chain)


def test_prefix_enumeration_and_the_harmony_sweep_close_no_order(monkeypatch):
    def no_closure(*args):
        raise AssertionError("an order was closed")

    g = PGraph({"a": f("p"), "b": f("q")}, [("a", "b")])
    monkeypatch.setattr("beliefrev.semantics.transitive_closure", no_closure)
    monkeypatch.setattr("beliefrev.pgraph.transitive_closure", no_closure)
    assert prefix(g, f("~p")).prec() == {("r0", "a"), ("r0", "b"), ("a", "b")}
    assert len(list(enumerate_pgraphs(pool(), 3))) == 716
    assert sweep_harmony(3, SIG_PQ, pool()).verdict
    with pytest.raises(AssertionError, match="an order was closed"):
        PGraph({"a": f("p")})


def test_only_an_order_handed_in_pays_the_transitivity_product(monkeypatch):
    # The product is cubic in the node count; a graph file has no node limit.
    def no_product(*args):
        raise AssertionError("an order was multiplied")

    n = 2048
    chain = "\n".join(
        ["atoms: p", *(f"node n{i}: p" for i in range(n)), *(f"n{i} < n{i + 1}" for i in range(n - 1))]
    )
    monkeypatch.setattr("beliefrev.pgraph._compose", no_product)
    _, g = parse_graph_file(chain)
    assert np.array_equal(g.matrix, np.triu(np.ones((n, n), dtype=bool), 1))
    out = prefix(g, f("q"))
    assert np.array_equal(out.matrix, np.triu(np.ones((n + 1, n + 1), dtype=bool), 1))
    _, antichain = parse_graph_file("\n".join(["atoms: p", *(f"node n{i}: p" for i in range(n))]))
    assert not prefix(antichain, f("q")).matrix[1:].any()
    model = chain_fixture()
    assert induce_model(graph_from_preorder(model), model.worlds) == model
    with pytest.raises(AssertionError, match="an order was multiplied"):
        PGraph._closed(g.labels, g.edges, g.matrix.copy())


def test_graph_from_preorder_reuses_its_labels_and_compiles_nothing_again(monkeypatch):
    model = chain_fixture()
    first = graph_from_preorder(model)
    assert induce_model(first, model.worlds) == model
    compiled = []
    original = beliefrev.formula._compile

    def counting(formula, sig):
        compiled.append(formula)
        return original(formula, sig)

    monkeypatch.setattr(beliefrev.formula, "_compile", counting)
    second = graph_from_preorder(model)
    assert all(second.label(n) is first.label(n) for n in first.node_ids)
    assert induce_model(second, model.worlds) == model
    assert compiled == []
    assert _down_label.cache_info().maxsize == _MEMO_SIZE


def test_tied_worlds_share_one_label_object():
    for model in preorder_models_on_trio():
        g = graph_from_preorder(model)
        for a in model.ids:
            for b in model.ids:
                tied = model.leq(a, b) and model.leq(b, a)
                assert (g.label(a) is g.label(b)) == tied
        assert induce_model(g, model.worlds) == model
