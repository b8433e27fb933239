"""The harmony sweep on stacks of graphs against the sweep one model at a time.

``reference_harmony`` builds every canonical and revised model on its own.
The stacked sweep must give the same report, text and data, whether
prefixing agrees with lexicographic revision or not, raise the same errors,
and prove every relation it induces as a model would.
"""

import numpy as np
import pytest

import reference_harmony as reference
from beliefrev import PGraph, PreferenceModel, Signature, parse, sweep_harmony
from beliefrev.errors import ModelInvariantError, UnknownAtomError
from beliefrev.pgraph import induced_orders
from beliefrev.semantics import worlds_for_signature
from helpers import POOL_TEXTS, SIG_PQ, SIG_PQR

POOLS = {
    SIG_PQ: {0: (), 1: ("p",), 5: POOL_TEXTS},
    SIG_PQR: {0: (), 1: ("q | r",), 5: ("p", "q | r", "~r", "p & r", "p <-> q")},
}


def texts_pool(sig, size):
    return tuple(parse(t, sig) for t in POOLS[sig][size])


def assert_same_report(bound, sig, labels):
    got = sweep_harmony(bound, sig, labels)
    expected = reference.sweep_harmony(bound, sig, labels)
    assert got.to_dict() == expected.to_dict()
    assert got.render() == expected.render()
    return got


@pytest.mark.parametrize("sig", [SIG_PQ, SIG_PQR], ids=["pq", "pqr"])
@pytest.mark.parametrize("size", [0, 1, 5])
@pytest.mark.parametrize("bound", [0, 1, 2, 3])
def test_the_stacked_sweep_reports_what_the_loop_reports(bound, size, sig):
    report = assert_same_report(bound, sig, texts_pool(sig, size))
    assert report.verdict


def prefix_at_the_bottom(graph, formula):
    """A fresh node strictly less important than every node: not prefixing,
    so harmony breaks wherever the new node changes the order."""
    new_id = graph.fresh_node_id()
    edges = set(graph.edges) | {(node, new_id) for node in graph.node_ids}
    return PGraph({new_id: formula, **graph.labels}, edges)


@pytest.mark.parametrize("sig", [SIG_PQ, SIG_PQR], ids=["pq", "pqr"])
@pytest.mark.parametrize("bound", [0, 1, 2, 3])
def test_mismatches_are_the_loops_in_graph_then_formula_order(monkeypatch, bound, sig):
    monkeypatch.setattr("beliefrev.harness.prefix", prefix_at_the_bottom)
    monkeypatch.setattr(reference, "prefix", prefix_at_the_bottom)
    report = assert_same_report(bound, sig, texts_pool(sig, 5))
    assert report.verdict == (bound == 0)


def test_the_mismatch_list_is_pinned(monkeypatch):
    monkeypatch.setattr("beliefrev.harness.prefix", prefix_at_the_bottom)
    report = sweep_harmony(1, SIG_PQ, texts_pool(SIG_PQ, 5))
    assert report.data["instances"] == 30
    # A bottom node only orders worlds the nodes above it tie: under the
    # graph p, revising by p | q orders w_q before w_0, as the bottom node
    # p | q does, so that instance agrees.
    assert report.data["mismatches"] == [
        ("PGraph(n0: p)", "q"),
        ("PGraph(n0: p)", "~p"),
        ("PGraph(n0: q)", "p"),
        ("PGraph(n0: q)", "~p"),
        ("PGraph(n0: ~p)", "p"),
        ("PGraph(n0: ~p)", "q"),
        ("PGraph(n0: ~p)", "p & q"),
        ("PGraph(n0: ~p)", "p | q"),
        ("PGraph(n0: p & q)", "~p"),
        ("PGraph(n0: p | q)", "~p"),
    ]
    assert "[1] FAIL: prefixing agrees with lexicographic revision on all 30 instances" in report.render()
    assert len(sweep_harmony(2, SIG_PQ, texts_pool(SIG_PQ, 5)).data["mismatches"]) == 122


@pytest.mark.parametrize("bound", [0, 2])
def test_a_pool_formula_outside_the_signature_raises_as_before(bound):
    wide = Signature(("p", "q", "zz", "yy"))
    labels = (parse("p", SIG_PQ), parse("q & zz", wide), parse("yy", wide))
    with pytest.raises(UnknownAtomError) as expected:
        reference.sweep_harmony(bound, SIG_PQ, labels)
    with pytest.raises(UnknownAtomError) as caught:
        sweep_harmony(bound, SIG_PQ, labels)
    assert str(caught.value) == str(expected.value) == "unknown atom 'zz'"


NOT_TRANSITIVE = np.eye(4, dtype=bool)
NOT_TRANSITIVE[0, 1] = NOT_TRANSITIVE[1, 2] = True
NOT_REFLEXIVE = np.ones((4, 4), dtype=bool)
NOT_REFLEXIVE[2, 2] = False


# With the 5-formula pool each graph is followed by its 5 prefixed graphs:
# entry 6 is the one-node graph p, entry 7 that graph prefixed by p.
@pytest.mark.parametrize("entry", [0, 6, 7, 40])
@pytest.mark.parametrize("relation", [NOT_TRANSITIVE, NOT_REFLEXIVE], ids=["transitive", "reflexive"])
def test_no_induced_relation_is_trusted(monkeypatch, entry, relation):
    worlds = worlds_for_signature(SIG_PQ)
    with pytest.raises(ModelInvariantError) as expected:
        PreferenceModel(worlds, relation)

    def one_wrong(sat, above):
        orders = induced_orders(sat, above)
        orders[entry] = relation
        return orders

    monkeypatch.setattr("beliefrev.harness.induced_orders", one_wrong)
    with pytest.raises(ModelInvariantError) as caught:
        sweep_harmony(2, SIG_PQ, texts_pool(SIG_PQ, 5))
    assert str(caught.value) == str(expected.value)
