import pytest

from beliefrev import (
    PGraph,
    PreferenceModel,
    canonical_model,
    graphs_equivalent,
    lex_revise,
    prefix,
    Valuation,
    World,
)
from beliefrev.errors import BeliefRevError, NotRepresentableError, ResourceBoundError
from beliefrev.pgraph import enumerate_pgraphs
from beliefrev.transforms import (
    GraphTransformation,
    NULL,
    PREFIX,
    apply_induced,
    null_transform,
    relevance_check,
)
from helpers import (
    SIG_PQ,
    all_equal_fixture,
    chain_fixture,
    f,
    graph,
    pool,
    preorder_models_on_trio,
)


def p_before_q():
    return graph({"a": "p", "b": "q"}, [("a", "b")])


# --- prefixing ------------------------------------------------------------------


def test_prefix_adds_a_root_above_everything():
    g = p_before_q()
    out = prefix(g, f("~p"))
    root = next(n for n in out.node_ids if n not in g.node_ids)
    assert out.label(root) == f("~p")
    assert out.labels.keys() - {root} == set(g.node_ids)
    assert (root, "a") in out.edges and (root, "b") in out.edges
    assert ("a", "b") in out.edges


def test_prefix_of_empty_graph_is_a_singleton():
    out = prefix(PGraph({}), f("p"))
    assert len(out) == 1
    assert list(out.labels.values()) == [f("p")]
    assert out.edges == frozenset()


def test_prefix_keeps_original_nodes_and_edges():
    for g in list(enumerate_pgraphs(pool(), 2))[:30]:
        out = prefix(g, f("p | q"))
        for node in g.node_ids:
            assert out.label(node) == g.label(node)
        assert g.edges <= out.edges


def test_prefix_never_self_loops_even_on_duplicate_labels():
    g = graph({"n0": "~p"})
    out = prefix(g, f("~p"))
    assert len(out) == 2


def test_prefix_canonical_model_equals_lexicographic_revision():
    g = p_before_q()
    assert canonical_model(prefix(g, f("~p")), SIG_PQ) == lex_revise(chain_fixture(), f("~p")).model


def test_prefix_lex_harmony_exhaustive_three_nodes():
    # every graph with up to three pool-labelled nodes, every pool formula
    labels = pool()
    count = 0
    for g in enumerate_pgraphs(labels, 3):
        base = canonical_model(g, SIG_PQ)
        for formula in labels:
            count += 1
            assert canonical_model(prefix(g, formula), SIG_PQ) == lex_revise(base, formula).model
    assert count == (1 + 5 + 15 * 3 + 35 * 19) * 5


# --- null transformation -----------------------------------------------------------


def test_null_transform_is_identity_and_idempotent():
    g = p_before_q()
    assert null_transform(g, f("p")) is g
    assert null_transform(null_transform(g, f("p")), f("p")) == g
    assert canonical_model(null_transform(g, f("q")), SIG_PQ) == canonical_model(g, SIG_PQ)


def test_transformation_call_validates_output():
    broken = GraphTransformation(
        "broken", lambda g, formula: PGraph({"a": formula}, [("a", "a")])
    )
    with pytest.raises(Exception):
        broken(p_before_q(), f("p"))


# --- induced application ----------------------------------------------------------------


def test_apply_induced_prefix_agrees_with_lex_on_chain():
    m = chain_fixture()
    out = apply_induced(PREFIX, m, f("~p"))
    assert out.model == lex_revise(m, f("~p")).model
    assert out.operator == "induced-prefix"


def test_apply_induced_prefix_agrees_with_lex_on_all_representable_fixtures():
    for m in preorder_models_on_trio():
        for formula in pool():
            assert apply_induced(PREFIX, m, formula).model == lex_revise(m, formula).model


def test_apply_induced_null_is_null_change():
    for m in (chain_fixture(), all_equal_fixture()):
        for formula in (f("p"), f("~p"), f("p & q")):
            assert apply_induced(NULL, m, formula).model == m


def test_apply_induced_on_all_equal_model_by_p():
    m = all_equal_fixture()
    out = apply_induced(PREFIX, m, f("p")).model
    sat = {"w_pq", "w_p"}
    for a in m.ids:
        for b in m.ids:
            if a in sat and b not in sat:
                assert out.strictly_below(a, b)
            elif (a in sat) == (b in sat):
                assert out.leq(a, b) and out.leq(b, a)


def test_apply_induced_cross_checks_with_a_supplied_inducing_graph():
    m = chain_fixture()
    alternative = p_before_q()
    default = apply_induced(PREFIX, m, f("~p")).model
    overridden = apply_induced(PREFIX, m, f("~p"), inducing_graph=alternative).model
    assert default == overridden

    with pytest.raises(ValueError):
        apply_induced(PREFIX, m, f("~p"), inducing_graph=graph({"a": "q"}))


def test_apply_induced_propagates_non_representability():
    v = Valuation(SIG_PQ, (True, True))
    worlds = (World("a", v), World("b", v))
    m = PreferenceModel.from_edges(worlds, [("a", "b")])
    with pytest.raises(NotRepresentableError):
        apply_induced(PREFIX, m, f("p"))


# --- relevance ---------------------------------------------------------------------------


def four_chain():
    return graph(
        {"m1": "p & q", "m2": "p & ~q", "m3": "~p & q", "m4": "~p & ~q"},
        [("m1", "m2"), ("m2", "m3"), ("m3", "m4")],
    )


def reordered_four_chain():
    return graph(
        {"m1": "p & q", "m3": "~p & q", "m2": "p & ~q", "m4": "~p & ~q"},
        [("m1", "m3"), ("m3", "m2"), ("m2", "m4")],
    )


def test_relevance_check_prefix_is_consistent_on_the_full_sweep():
    verdict = relevance_check(
        PREFIX,
        [(p_before_q(), four_chain())],
        pool(),
        SIG_PQ,
        node_bound=2,
    )
    assert verdict.consistent
    assert verdict.witness is None
    assert verdict.pairs_checked > 100


def test_relevance_check_null_is_consistent():
    verdict = relevance_check(NULL, [], pool(), SIG_PQ, node_bound=2)
    assert verdict.consistent


def test_relevance_check_finds_the_inconsistent_hand_crafted_map():
    target = reordered_four_chain()

    def warped(g, formula):
        if set(g.node_ids) == {"m1", "m2", "m3", "m4"}:
            return target
        return g

    verdict = relevance_check(
        GraphTransformation("warped", warped),
        [(p_before_q(), four_chain())],
        [f("p")],
        SIG_PQ,
        node_bound=0,
    )
    assert verdict.status == "counterexample"
    witness = verdict.witness
    assert witness is not None
    assert graphs_equivalent(witness.graph_a, witness.graph_b, SIG_PQ)
    assert not graphs_equivalent(witness.output_a, witness.output_b, SIG_PQ)


def test_a_witness_whose_inputs_fail_the_re_check_raises(monkeypatch):
    # Equivalent when the pair is supplied, inequivalent on every later call:
    # the outputs differ, and then so do the inputs on re-check.
    calls = []

    def first_call_only(a, b, sig):
        calls.append((a, b))
        return len(calls) == 1

    monkeypatch.setattr("beliefrev.transforms.graphs_equivalent", first_call_only)
    with pytest.raises(BeliefRevError, match="not equivalent on re-check") as err:
        relevance_check(NULL, [(p_before_q(), four_chain())], [f("p")], SIG_PQ, node_bound=0)
    assert not isinstance(err.value, AssertionError)
    assert len(calls) == 3


def test_relevance_check_rejects_non_equivalent_input_pairs():
    with pytest.raises(ValueError):
        relevance_check(PREFIX, [(p_before_q(), reordered_four_chain())], [f("p")], SIG_PQ)


def test_relevance_check_rejects_a_negative_node_bound():
    with pytest.raises(ResourceBoundError, match="node bound -1 is negative"):
        relevance_check(PREFIX, [], pool(), SIG_PQ, node_bound=-1)


def test_relevance_check_refuses_a_node_bound_past_the_order_enumeration(monkeypatch):
    def no_graph(*args):
        raise AssertionError("a graph was built")

    monkeypatch.setattr("beliefrev.pgraph.PGraph", no_graph)
    with pytest.raises(ResourceBoundError, match="5 elements exceed the order enumeration limit of 4"):
        relevance_check(PREFIX, [], pool(), SIG_PQ, node_bound=5)
