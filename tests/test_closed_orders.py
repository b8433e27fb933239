"""Graphs built from orders already closed.

``enumerate_pgraphs`` shares the matrices of ``_closed_orders``, ``prefix``
writes the prefixed order and ``graph_from_preorder`` an antichain, each
closed by construction; none of them runs a closure or proves its matrix
again. These tests pin those orders at their source, compare each path
with construction from edges and with Warshall's closure, and pin the
work the paths removed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beliefrev
import beliefrev.cli
import beliefrev.formula
import beliefrev.pgraph
import beliefrev.transforms
from beliefrev import PGraph, graph_from_preorder, prefix, sweep_harmony
from beliefrev.files import parse_graph_file
from beliefrev.formula import _MEMO_SIZE
from beliefrev.pgraph import (
    _closed_orders,
    _down_label,
    enumerate_pgraphs,
    induce_model,
    strict_orders,
)
from beliefrev.semantics import PreferenceModel
from helpers import (
    SIG_PQ,
    canonical_pq,
    chain_fixture,
    f,
    oracle_closure,
    oracle_prec,
    pool,
    preorder_models_on_trio,
    random_pgraph,
)


def test_the_enumerated_orders_are_the_strict_orders_closed_as_written():
    for k, count in enumerate([1, 1, 3, 19, 219]):
        orders = _closed_orders(k)
        expected = [frozenset((f"n{a}", f"n{b}") for a, b in order) for order in strict_orders(k)]
        assert [edges for edges, _ in orders] == expected and len(orders) == count
        for edges, matrix in orders:
            assert not matrix.flags.writeable and not matrix.diagonal().any()
            pairs = [(int(a[1:]), int(b[1:])) for a, b in edges]
            assert np.array_equal(matrix, oracle_closure(k, pairs))


def test_every_enumerated_graph_is_the_graph_its_edges_build():
    for g in enumerate_pgraphs(pool(), 3):
        built = PGraph(g.labels, g.edges)
        assert np.array_equal(g.matrix, built.matrix)
        assert g.predecessors == built.predecessors
        assert g.prec() == built.prec() == oracle_prec(built)
        assert repr(g) == repr(built)


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


def test_no_graph_construction_runs_the_transitivity_product(monkeypatch):
    # The product is cubic in the node count; a graph file has no node limit.
    def no_product(*args):
        raise AssertionError("an order was multiplied")

    n = 2048
    chain = "\n".join(
        ["atoms: p", *(f"node n{i}: p" for i in range(n)), *(f"n{i} < n{i + 1}" for i in range(n - 1))]
    )
    monkeypatch.setattr("beliefrev.semantics._compose", no_product)
    _, g = parse_graph_file(chain)
    assert np.array_equal(g.matrix, np.triu(np.ones((n, n), dtype=bool), 1))
    out = prefix(g, f("q"))
    assert np.array_equal(out.matrix, np.triu(np.ones((n + 1, n + 1), dtype=bool), 1))
    _, antichain = parse_graph_file("\n".join(["atoms: p", *(f"node n{i}: p" for i in range(n))]))
    assert not prefix(antichain, f("q")).matrix[1:].any()
    model = chain_fixture()
    # The chain model is a total preorder, so building it pays no product.
    assert induce_model(graph_from_preorder(model), model.worlds) == model
    assert len(list(enumerate_pgraphs(pool(), 4))) == 16046
    # The patch is live: a preorder that is not total is proved by the product.
    with pytest.raises(AssertionError, match="an order was multiplied"):
        PreferenceModel(canonical_pq()[:2], np.eye(2, dtype=bool))


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


def test_every_graph_holds_a_read_only_matrix():
    # ``PGraph._built`` only assigns its fields, so each path that writes a
    # matrix makes it read-only where it writes it.
    g = PGraph({"a": f("p"), "b": f("q")}, [("a", "b")])
    built = [g, prefix(g, f("~p")), prefix(PGraph({}), f("p"))]
    built += [graph_from_preorder(m) for m in (chain_fixture(), *preorder_models_on_trio())]
    built += enumerate_pgraphs(pool(), 3)
    for h in built:
        assert not h.matrix.flags.writeable
        if len(h):
            with pytest.raises(ValueError, match="read-only"):
                h.matrix[0, 0] = True


def test_prefix_is_one_function_wherever_it_is_reached():
    one = beliefrev.pgraph.prefix
    assert beliefrev.transforms.prefix is one and beliefrev.prefix is one
    assert beliefrev.transforms.PREFIX.fn is one and beliefrev.cli.ON_GRAPHS["prefix"] is one
    assert not hasattr(beliefrev.pgraph.PGraph, "_prefixed")
