import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefrev import (
    PGraph,
    PreferenceModel,
    Signature,
    Valuation,
    World,
    canonical_model,
    equivalent,
    graph_from_preorder,
    graphs_equivalent,
)
from beliefrev.errors import (
    GraphCycleError,
    GraphSelfLoopError,
    NotRepresentableError,
    ResourceBoundError,
    UnknownAtomError,
)
from beliefrev.formula import TOP
from beliefrev.pgraph import (
    _stack,
    enumerate_pgraphs,
    induce_model,
    induced_order,
    induced_orders,
    strict_orders,
)
from beliefrev.semantics import _sat_table, _sat_vector, worlds_for_signature
from helpers import (
    POOL_TEXTS,
    SIG_PQ,
    SIG_PQR,
    canonical_pq,
    chain_fixture,
    f,
    graph,
    model_pairs,
    oracle_induced_pairs,
    oracle_prec,
    pool,
    preorder_models_on_trio,
    random_pgraph,
)


def four_chain_graph():
    return graph(
        {"m1": "p & q", "m2": "p & ~q", "m3": "~p & q", "m4": "~p & ~q"},
        [("m1", "m2"), ("m2", "m3"), ("m3", "m4")],
    )


def reordered_four_chain():
    return graph(
        {"m1": "p & q", "m3": "~p & q", "m2": "p & ~q", "m4": "~p & ~q"},
        [("m1", "m3"), ("m3", "m2"), ("m2", "m4")],
    )


# --- validation -----------------------------------------------------------------


def test_validate_reports_cycles_and_self_loops():
    with pytest.raises(GraphCycleError) as err:
        graph({"a": "p", "b": "q"}, [("a", "b"), ("b", "a")])
    assert set(err.value.cycle) >= {"a", "b"}
    with pytest.raises(GraphSelfLoopError):
        graph({"a": "p"}, [("a", "a")])


def test_construction_rejects_cycles_and_self_loops():
    with pytest.raises(GraphCycleError) as err:
        PGraph({"a": f("p"), "b": f("q"), "c": f("p")}, [("a", "b"), ("b", "c"), ("c", "b")])
    assert err.value.cycle == ("b", "c", "b")
    with pytest.raises(GraphSelfLoopError) as err:
        PGraph({"a": f("p"), "b": f("q")}, [("a", "b"), ("b", "b")])
    assert err.value.node == "b"


def test_cycle_report_is_a_cycle_of_stored_edges():
    # Every node here reaches b, and from c the smaller successor d leads
    # back only into c; the reported cycle must still use stored edges.
    edges = [("b", "c"), ("c", "d"), ("d", "c"), ("c", "e"), ("e", "b")]
    with pytest.raises(GraphCycleError) as err:
        PGraph({n: f("p") for n in "abcde"}, edges)
    cycle = err.value.cycle
    assert cycle == ("b", "c", "e", "b")
    assert set(zip(cycle, cycle[1:])) <= set(edges)


@st.composite
def shuffled_dags(draw):
    """A graph on up to 7 nodes listed in a shuffled order, with edges only
    forward along an independent random ranking, so it is acyclic."""
    n = draw(st.integers(0, 7))
    listed = draw(st.permutations(range(n)))
    ranked = draw(st.permutations(range(n)))
    pairs = [(ranked[i], ranked[j]) for i in range(n) for j in range(i + 1, n)]
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [(f"n{a}", f"n{b}") for (a, b), on in zip(pairs, picks) if on]
    return PGraph({f"n{i}": f("p") for i in listed}, edges)


@settings(max_examples=100, deadline=None)
@given(shuffled_dags())
def test_order_matrix_and_prec_match_warshall(g):
    closure = oracle_prec(g)
    ids = g.node_ids
    expected = [[(a, b) in closure for b in ids] for a in ids]
    assert np.array_equal(g.matrix, np.array(expected, dtype=bool).reshape(len(ids), len(ids)))
    assert not g.matrix.flags.writeable
    assert g.prec() == closure


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_predecessors_are_the_columns_of_the_warshall_closure(rng):
    g = random_pgraph(rng, SIG_PQ, max_nodes=9)
    closure, ids = oracle_prec(g), g.node_ids
    assert len(g.predecessors) == len(ids)
    for j, preds in enumerate(g.predecessors):
        assert preds >> len(ids) == 0
        for i, a in enumerate(ids):
            assert bool(preds >> i & 1) == ((a, ids[j]) in closure)


def test_predecessors_are_read_once():
    assert PGraph({}).predecessors == ()
    g = graph({"a": "p", "b": "q", "c": "p | q"}, [("a", "b"), ("b", "c")])
    assert g.predecessors == (0, 0b001, 0b011)
    assert g.predecessors is g.predecessors


def test_closure_is_computed_from_stored_edges():
    g = graph({"a": "p", "b": "q", "c": "p | q"}, [("a", "b"), ("b", "c")])
    assert ("a", "c") in g.prec()
    assert ("a", "c") not in g.edges


def test_edges_must_reference_known_nodes():
    with pytest.raises(ValueError):
        PGraph({"a": f("p")}, [("a", "ghost")])


def test_unknown_endpoint_error_names_the_least_unknown_id():
    # Not the first one met in a frozenset, whose order follows the hash seed.
    with pytest.raises(ValueError, match="'x' is not a node"):
        PGraph({"a": f("p")}, [("a", "z"), ("y", "a"), ("a", "x")])


# --- induced orders ---------------------------------------------------------------


def test_induced_order_of_p_before_q_is_the_chain():
    worlds = canonical_pq()
    got = induced_order(graph({"a": "p", "b": "q"}, [("a", "b")]), worlds)
    assert model_pairs(PreferenceModel(worlds, got)) == model_pairs(chain_fixture())


def test_empty_graph_relates_everything():
    worlds = canonical_pq()
    assert induced_order(PGraph({}), worlds).all()


def test_single_node_graph_matches_the_defining_clause():
    worlds = canonical_pq()
    got = PreferenceModel(worlds, induced_order(graph({"a": "p"}), worlds))
    for w in worlds:
        for u in worlds:
            expected = (not u.valuation["p"]) or w.valuation["p"]
            assert got.leq(w.id, u.id) == expected


def test_induced_order_matches_brute_force_oracle_on_random_graphs():
    rng = random.Random(23)
    worlds = worlds_for_signature(SIG_PQR)
    for _ in range(150):
        g = random_pgraph(rng, SIG_PQR)
        got = PreferenceModel(worlds, induced_order(g, worlds))
        assert model_pairs(got) == oracle_induced_pairs(g, worlds)


def test_induced_order_with_256_nodes_above_one():
    labels = {f"n{i}": f("p") for i in range(256)} | {"low": f("q")}
    g = PGraph(labels, {(f"n{i}", "low") for i in range(256)})
    worlds = canonical_pq()
    got = induce_model(g, worlds)
    assert got.leq("w_p", "w_q")
    assert model_pairs(got) == oracle_induced_pairs(g, worlds)


LABELS_PQR = ("p", "q", "r", "~p", "p & q", "p | r", "q -> r", "p <-> r", "~q & r", "T")


def world_tuples(sig):
    """The canonical worlds of ``sig`` in any order, or a multiset of their
    valuations under fresh ids."""
    canon = worlds_for_signature(sig)
    permuted = st.permutations(canon).map(tuple)
    multiset = st.lists(st.sampled_from(canon), min_size=1, max_size=12).map(
        lambda ws: tuple(World(f"x{i}", w.valuation) for i, w in enumerate(ws))
    )
    return st.one_of(permuted, multiset)


@st.composite
def deep_graphs(draw):
    """10-20 nodes over {p, q, r}, the last in a random ranking below at least
    nine others, so its nodes above span two packed bytes. The other edges
    run forward along the ranking, so the graph is acyclic."""
    n = draw(st.integers(10, 20))
    listed = draw(st.permutations(range(n)))
    ranked = draw(st.permutations(range(n)))
    k = draw(st.integers(9, n - 1))
    above_low = draw(st.permutations(ranked[:-1]))[:k]
    pairs = [(ranked[i], ranked[j]) for i in range(n) for j in range(i + 1, n)]
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = {(f"n{a}", f"n{b}") for (a, b), on in zip(pairs, picks) if on}
    edges |= {(f"n{a}", f"n{ranked[-1]}") for a in above_low}
    labels = {f"n{i}": f(draw(st.sampled_from(LABELS_PQR)), SIG_PQR) for i in listed}
    return PGraph(labels, edges)


@st.composite
def long_chains(draw):
    """Chains of 63-70 nodes over two or three atoms, listed in a shuffled
    order, with labels drawn from a pool of three so that they repeat."""
    sig = draw(st.sampled_from((SIG_PQ, SIG_PQR)))
    texts = LABELS_PQR if sig is SIG_PQR else POOL_TEXTS
    few = draw(st.lists(st.sampled_from(texts), min_size=3, max_size=3))
    n = draw(st.integers(63, 70))
    listed = draw(st.permutations(range(n)))
    ranked = draw(st.permutations(range(n)))
    labels = {f"n{i}": f(draw(st.sampled_from(few)), sig) for i in listed}
    edges = {(f"n{a}", f"n{b}") for a, b in zip(ranked, ranked[1:])}
    return sig, PGraph(labels, edges)


@settings(max_examples=60, deadline=None)
@given(deep_graphs(), world_tuples(SIG_PQR))
def test_induced_order_matches_the_oracle_with_nine_or_more_nodes_above(g, worlds):
    got = PreferenceModel(worlds, induced_order(g, worlds))
    assert model_pairs(got) == oracle_induced_pairs(g, worlds)


@settings(max_examples=8, deadline=None)
@given(long_chains(), st.data())
def test_induced_order_matches_the_oracle_on_chains_of_63_to_70_nodes(chain, data):
    sig, g = chain
    worlds = data.draw(world_tuples(sig))
    got = PreferenceModel(worlds, induced_order(g, worlds))
    assert model_pairs(got) == oracle_induced_pairs(g, worlds)


def assert_each_entry_is_the_oracles(graphs, worlds):
    orders = induced_orders(*_stack(graphs, worlds))
    assert orders.shape == (len(graphs), len(worlds), len(worlds))
    for g, order in zip(graphs, orders):
        got = {(worlds[a].id, worlds[b].id) for a, b in zip(*np.nonzero(order))}
        assert got == oracle_induced_pairs(g, worlds)


@st.composite
def graph_stacks(draw):
    """1-6 random graphs of 0-4 nodes over 1-3 atoms, and a world tuple."""
    sig = draw(st.sampled_from((Signature(("p",)), SIG_PQ, SIG_PQR)))
    rng = draw(st.randoms(use_true_random=False))
    graphs = [random_pgraph(rng, sig) for _ in range(draw(st.integers(1, 6)))]
    return graphs, draw(world_tuples(sig))


@settings(max_examples=150, deadline=None)
@given(graph_stacks())
def test_every_entry_of_a_stack_is_its_graphs_induced_order(stack):
    assert_each_entry_is_the_oracles(*stack)


@settings(max_examples=30, deadline=None)
@given(st.lists(deep_graphs(), min_size=2, max_size=3), world_tuples(SIG_PQR))
def test_a_stack_of_deep_graphs_packs_each_nodes_above_set_apart(graphs, worlds):
    # Nine or more nodes span two bytes, and the nodes above one index differ
    # from graph to graph.
    assert_each_entry_is_the_oracles(graphs, worlds)


def test_padding_a_graph_in_a_stack_changes_nothing():
    rng = random.Random(31)
    worlds = worlds_for_signature(SIG_PQR)
    graphs = [PGraph({})] + [random_pgraph(rng, SIG_PQR) for _ in range(40)]
    orders = induced_orders(*_stack(graphs, worlds))
    assert max(map(len, graphs)) == 4 and min(map(len, graphs)) == 0
    for g, order in zip(graphs, orders):
        assert np.array_equal(order, induced_order(g, worlds))


def test_a_stack_evaluates_each_label_object_once_in_graph_then_node_order(monkeypatch):
    wide = Signature(("p", "q", "yy", "zz"))
    worlds = worlds_for_signature(SIG_PQ)
    first = graph({"a": "p", "b": "q & yy"}, sig=wide)
    second = graph({"a": "zz", "b": "yy"}, sig=wide)
    for graphs, atom in (([first, second], "yy"), ([second, first], "zz")):
        with pytest.raises(UnknownAtomError, match=rf"^unknown atom '{atom}'$"):
            _stack(graphs, worlds)

    shared, other = f("p | q"), f("~q")
    graphs = [PGraph({"a": shared}), PGraph({"a": other, "b": shared}, [("a", "b")]), PGraph({"c": shared})]
    evaluated = []

    def recording(worlds, formula):
        evaluated.append(formula)
        return _sat_vector(worlds, formula)

    monkeypatch.setattr("beliefrev.pgraph._sat_vector", recording)
    sat, above = _stack(graphs, worlds)
    assert [id(x) for x in evaluated] == [id(shared), id(other)]
    assert sat.shape == (3, 2, 4) and above.shape == (3, 2, 2)
    assert np.array_equal(sat[:, 0], _sat_table(worlds, [shared, other, shared]))
    assert sat[[0, 2], 1].all() and sat[1, 1].tolist() == sat[0, 0].tolist()
    assert above[1].tolist() == [[False, True], [False, False]] and not above[[0, 2]].any()
    assert_each_entry_is_the_oracles(graphs, worlds)


WIDE = Signature(("p", "q", "yy", "zz"))


@st.composite
def lone_graphs(draw):
    """A graph of 0-5 nodes whose labels repeat label objects, some naming
    atoms that the worlds over {p, q} lack, and a world tuple, maybe empty."""
    shared = [f(t, WIDE) for t in ("p", "~q", "p | q", "yy & p", "q | zz")]
    rng = draw(st.randoms(use_true_random=False))
    n = rng.randint(0, 5)
    labels = {f"n{i}": rng.choice(shared) for i in range(n)}
    rank = rng.sample(list(labels), n)
    edges = {e for e in itertools.combinations(rank, 2) if rng.random() < 0.4}
    return PGraph(labels, edges), draw(st.just(()) | world_tuples(SIG_PQ))


@settings(max_examples=200, deadline=None)
@given(lone_graphs())
def test_one_graphs_order_is_its_entry_in_a_stack_of_one(case):
    g, worlds = case
    try:
        want = induced_orders(*_stack([g], worlds))[0]
    except UnknownAtomError as exc:
        with pytest.raises(UnknownAtomError, match=f"^{re.escape(str(exc))}$"):
            induced_order(g, worlds)
    else:
        got = induced_order(g, worlds)
        assert got.shape == (len(worlds), len(worlds)) and np.array_equal(got, want)


def test_one_graph_is_induced_without_the_stack_builder(monkeypatch):
    def refuse(graphs, worlds):
        raise AssertionError("one graph went through _stack")

    monkeypatch.setattr("beliefrev.pgraph._stack", refuse)
    rng = random.Random(36)
    worlds = worlds_for_signature(SIG_PQR)
    for g in [PGraph({})] + [random_pgraph(rng, SIG_PQR) for _ in range(20)]:
        assert model_pairs(induce_model(g, worlds)) == oracle_induced_pairs(g, worlds)
    unknown = graph({"a": "p", "b": "yy"}, [("a", "b")], sig=WIDE)
    assert induced_order(unknown, ()).shape == (0, 0)
    with pytest.raises(UnknownAtomError, match=r"^unknown atom 'yy'$"):
        induced_order(unknown, worlds_for_signature(SIG_PQ))
    assert graphs_equivalent(four_chain_graph(), four_chain_graph(), SIG_PQ)


def test_induced_order_is_valuation_determined():
    # worlds sharing a valuation are always tied
    v_pq = Valuation(SIG_PQ, (True, True))
    v_0 = Valuation(SIG_PQ, (False, False))
    worlds = (World("a", v_pq), World("b", v_pq), World("c", v_0))
    rng = random.Random(5)
    for _ in range(50):
        g = random_pgraph(rng, SIG_PQ, max_nodes=3)
        m = induce_model(g, worlds)
        assert m.leq("a", "b") and m.leq("b", "a")


def test_induced_order_restricts_pointwise():
    rng = random.Random(9)
    worlds = canonical_pq()
    for _ in range(50):
        g = random_pgraph(rng, SIG_PQ, max_nodes=3)
        full = induce_model(g, worlds)
        for size in (1, 2, 3):
            subset = worlds[:size]
            sub = induce_model(g, subset)
            assert sub == full.restricted_to([w.id for w in subset])


# --- induce_model and canonical_model ------------------------------------------------


def test_induce_model_on_chain_and_restriction():
    worlds = canonical_pq()
    g = graph({"a": "p", "b": "q"}, [("a", "b")])
    assert induce_model(g, worlds) == chain_fixture()

    two = tuple(w for w in worlds if w.id in ("w_pq", "w_p"))
    m = induce_model(g, two)
    assert m.strictly_below("w_pq", "w_p")


def test_induce_model_on_empty_graph_is_all_equal():
    worlds = canonical_pq()
    m = induce_model(PGraph({}), worlds)
    assert all(m.leq(a, b) for a in m.ids for b in m.ids)


def test_canonical_model_examples():
    assert canonical_model(graph({"a": "p", "b": "q"}, [("a", "b")]), SIG_PQ) == chain_fixture()
    assert canonical_model(four_chain_graph(), SIG_PQ) == chain_fixture()

    from beliefrev import Signature

    sig_p = Signature(("p",))
    m = canonical_model(PGraph({}), sig_p)
    assert len(m.worlds) == 2
    assert all(m.leq(a, b) for a in m.ids for b in m.ids)


# --- graph equivalence -----------------------------------------------------------------


def test_background_equivalence_example():
    simple = graph({"a": "p", "b": "q"}, [("a", "b")])
    assert graphs_equivalent(simple, four_chain_graph(), SIG_PQ)
    assert not graphs_equivalent(four_chain_graph(), reordered_four_chain(), SIG_PQ)
    assert not graphs_equivalent(simple, reordered_four_chain(), SIG_PQ)
    assert graphs_equivalent(simple, simple, SIG_PQ)


def test_graphs_equivalent_is_an_equivalence_relation():
    graphs = list(enumerate_pgraphs(pool()[:3], 2))[:25]
    eq = lambda a, b: graphs_equivalent(a, b, SIG_PQ)
    for g in graphs:
        assert eq(g, g)
    for a, b in itertools.combinations(graphs, 2):
        assert eq(a, b) == eq(b, a)
    for a, b, c in itertools.combinations(graphs, 3):
        if eq(a, b) and eq(b, c):
            assert eq(a, c)


def test_canonical_equivalence_transfers_to_other_world_sets():
    # agreement on the canonical model implies agreement on any world set,
    # including ones that duplicate valuations
    simple = graph({"a": "p", "b": "q"}, [("a", "b")])
    chain4 = four_chain_graph()
    v = Valuation(SIG_PQ, (True, False))
    worlds = (
        World("x", v),
        World("y", v),
        World("z", Valuation(SIG_PQ, (False, True))),
    )
    assert induce_model(simple, worlds) == induce_model(chain4, worlds)


# --- representation of preorders by graphs ------------------------------------------------


def test_graph_from_preorder_two_world_example():
    v_p = Valuation(SIG_PQ, (True, False))
    v_0 = Valuation(SIG_PQ, (False, False))
    worlds = (World("w_p", v_p), World("w_0", v_0))
    m = PreferenceModel.from_edges(worlds, [("w_p", "w_0")])
    g = graph_from_preorder(m)
    assert set(g.node_ids) == {"w_p", "w_0"}
    assert g.edges == frozenset()
    # the down-set of w_p is itself; the down-set of w_0 is everything
    assert equivalent(g.label("w_p"), f("p & ~q"), SIG_PQ)
    assert equivalent(g.label("w_0"), f("(p & ~q) | (~p & ~q)"), SIG_PQ)
    assert induce_model(g, worlds) == m


def test_graph_from_preorder_all_equal_gives_trivial_labels():
    from helpers import all_equal_fixture

    m = all_equal_fixture()
    g = graph_from_preorder(m)
    for node in g.node_ids:
        assert equivalent(g.label(node), TOP, SIG_PQ)
    assert induce_model(g, m.worlds) == m


def test_graph_from_preorder_rejects_asymmetric_twins():
    v = Valuation(SIG_PQ, (True, True))
    worlds = (World("a", v), World("b", v))
    m = PreferenceModel.from_edges(worlds, [("a", "b")])
    with pytest.raises(NotRepresentableError):
        graph_from_preorder(m)


def test_graph_from_preorder_names_the_first_untied_pair_in_row_order():
    # two valuation groups, each with an untied pair; the group of the
    # earlier world is named, although its untied member comes last
    v_p = Valuation(SIG_PQ, (True, False))
    v_q = Valuation(SIG_PQ, (False, True))
    worlds = (World("a0", v_p), World("b0", v_q), World("b1", v_q), World("a1", v_p))
    m = PreferenceModel.from_edges(worlds, [("a0", "b0"), ("b0", "b1"), ("b1", "a1")])
    with pytest.raises(NotRepresentableError) as err:
        graph_from_preorder(m)
    assert err.value.pair == ("a0", "a1")


@st.composite
def models_sharing_valuations(draw):
    """Closures of random edges over up to 6 worlds drawn from 2 valuations,
    so both total and partial preorders, with and without untied twins."""
    vals = list(SIG_PQ.valuations())[:2]
    picks = draw(st.lists(st.sampled_from(vals), min_size=1, max_size=6))
    worlds = tuple(World(f"w{i}", v) for i, v in enumerate(picks))
    ids = st.sampled_from([w.id for w in worlds])
    edges = draw(st.lists(st.tuples(ids, ids), max_size=8))
    return PreferenceModel.from_edges(worlds, edges)


@settings(max_examples=200, deadline=None)
@given(models_sharing_valuations())
def test_graph_from_preorder_names_the_least_untied_pair_on_any_preorder(m):
    mat, firsts = m.matrix, {}
    untied = [
        (a, i)
        for i, w in enumerate(m.worlds)
        if not (mat[(a := firsts.setdefault(w.valuation, i)), i] and mat[i, a])
    ]
    if not untied:
        assert induce_model(graph_from_preorder(m), m.worlds) == m
        return
    with pytest.raises(NotRepresentableError) as err:
        graph_from_preorder(m)
    a, b = min(untied)
    assert err.value.pair == (m.worlds[a].id, m.worlds[b].id)


def test_round_trip_on_every_trio_preorder():
    for m in preorder_models_on_trio():
        g = graph_from_preorder(m)
        assert induce_model(g, m.worlds) == m


def test_round_trip_on_smaller_world_sets():
    from beliefrev.semantics import enumerate_preorders
    from helpers import trio_worlds

    worlds = trio_worlds()
    for size in (1, 2):
        subset = worlds[:size]
        for mat in enumerate_preorders(size):
            m = PreferenceModel(subset, mat)
            assert induce_model(graph_from_preorder(m), subset) == m


def test_canonical_model_guards_against_large_signatures():
    from beliefrev import Signature
    from beliefrev.errors import SignatureTooLargeError

    big = Signature(tuple(f"a{i}" for i in range(13)))
    with pytest.raises(SignatureTooLargeError):
        canonical_model(PGraph({}), big)


def test_round_trip_with_tied_duplicate_valuations():
    # Bits given as a list make the same valuation as a tuple.
    worlds = (
        World("a", Valuation(SIG_PQ, (False, True))),
        World("b", Valuation(SIG_PQ, [False, True])),
        World("c", Valuation(SIG_PQ, [True, True])),
    )
    m = PreferenceModel.from_edges(worlds, [("a", "b"), ("b", "a"), ("c", "a")])
    g = graph_from_preorder(m)
    assert induce_model(g, worlds) == m


# --- enumeration and structural invariants ---------------------------------------------------


def test_strict_order_counts():
    assert sum(1 for _ in strict_orders(0)) == 1
    assert sum(1 for _ in strict_orders(1)) == 1
    assert sum(1 for _ in strict_orders(2)) == 3
    assert sum(1 for _ in strict_orders(3)) == 19


def test_enumerate_pgraphs_counts():
    labels = pool()
    assert sum(1 for _ in enumerate_pgraphs(labels, 0)) == 1
    assert sum(1 for _ in enumerate_pgraphs(labels, 1)) == 6
    assert sum(1 for _ in enumerate_pgraphs(labels, 2)) == 51


def test_strict_orders_refuse_more_than_four_elements():
    assert sum(1 for _ in strict_orders(4)) == 219
    with pytest.raises(ResourceBoundError, match="5 elements exceed the order enumeration limit of 4"):
        next(strict_orders(5))


def test_enumerate_pgraphs_refuses_an_oversized_bound_before_its_first_graph(monkeypatch):
    def no_graph(*args):
        raise AssertionError("a graph was built")

    monkeypatch.setattr("beliefrev.pgraph.PGraph", no_graph)
    with pytest.raises(ResourceBoundError):
        next(enumerate_pgraphs(pool(), 5))


def test_enumerate_pgraphs_keeps_its_order_with_strict_orders_computed_once():
    def reference(labels, max_nodes):
        for k in range(max_nodes + 1):
            for combo in itertools.combinations_with_replacement(labels, k):
                for order in strict_orders(k):
                    yield (
                        [(f"n{i}", f) for i, f in enumerate(combo)],
                        sorted((f"n{a}", f"n{b}") for a, b in order),
                    )

    got = [(list(g.labels.items()), sorted(g.edges)) for g in enumerate_pgraphs(pool(), 3)]
    assert len(got) == 716
    assert got == list(reference(pool(), 3))


def test_random_induced_orders_are_preorders_with_acyclic_strict_part():
    rng = random.Random(101)
    worlds = worlds_for_signature(SIG_PQR)
    for _ in range(200):
        g = random_pgraph(rng, SIG_PQR)
        mat = induced_order(g, worlds)
        n = len(worlds)
        assert mat.diagonal().all()
        implied = (mat.astype(np.uint8) @ mat.astype(np.uint8)) > 0
        assert not (implied & ~mat).any()
        # PreferenceModel would reject a cyclic strict part
        PreferenceModel(worlds, mat)
