import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from beliefrev import (
    PreferenceModel,
    Signature,
    Valuation,
    World,
    lex_revise,
    natural_revise,
)
from beliefrev.errors import ModelInvariantError, ResourceBoundError
from beliefrev.files import parse_model_file
from beliefrev.formula import BOT, TOP
from beliefrev.semantics import (
    _implied,
    enumerate_preorders,
    min_worlds,
    null_change,
    worlds_for_signature,
)
from helpers import (
    SIG_PQ,
    all_equal_fixture,
    canonical_pq,
    chain_fixture,
    chain_model,
    f,
    oracle_implied,
    oracle_lex_pairs,
    oracle_min_ids,
    oracle_natural_pairs,
    model_pairs,
    pool,
    preorder_models_on_trio,
    trio_worlds,
)


# --- model construction and invariants ----------------------------------------


def test_worlds_for_signature_ids_and_order():
    worlds = worlds_for_signature(SIG_PQ)
    assert [w.id for w in worlds] == ["w_pq", "w_p", "w_q", "w_0"]
    assert worlds[2].valuation.describe() == "~p & q"


def test_model_rejects_broken_relations():
    worlds = canonical_pq()
    not_reflexive = np.zeros((4, 4), dtype=bool)
    with pytest.raises(ModelInvariantError):
        PreferenceModel(worlds, not_reflexive)

    not_transitive = np.eye(4, dtype=bool)
    not_transitive[0, 1] = True
    not_transitive[1, 2] = True
    with pytest.raises(ModelInvariantError):
        PreferenceModel(worlds, not_transitive)

    with pytest.raises(ModelInvariantError):
        PreferenceModel((), np.zeros((0, 0), dtype=bool))

    twice = (worlds[0], World("w_pq", worlds[1].valuation))
    with pytest.raises(ModelInvariantError):
        PreferenceModel(twice, np.eye(2, dtype=bool))


def test_model_rejects_an_intransitivity_through_256_middles():
    # 256 paths a <= k <= b: a path count kept in 8 bits wraps to 0 here
    v = Valuation(Signature(("p",)), (True,))
    worlds = [World("a", v), World("b", v)] + [World(f"k{i}", v) for i in range(256)]
    mat = np.eye(len(worlds), dtype=bool)
    mat[0, 2:] = True
    mat[2:, 1] = True
    with pytest.raises(ModelInvariantError, match="not transitive: 'a' <= 'b'"):
        PreferenceModel(worlds, mat)
    mat[0, 1] = True
    assert PreferenceModel(worlds, mat).leq("a", "b")


def test_from_edges_closes_reflexively_and_transitively():
    worlds = canonical_pq()
    m = PreferenceModel.from_edges(worlds, [("w_pq", "w_p"), ("w_p", "w_q")])
    assert m.leq("w_pq", "w_q")
    assert m.leq("w_0", "w_0")
    assert not m.leq("w_q", "w_pq")


def test_from_edges_names_an_unknown_world():
    with pytest.raises(ModelInvariantError, match="edge endpoint 'ghost' is not a world"):
        PreferenceModel.from_edges(canonical_pq(), [("w_pq", "ghost")])


def test_model_stores_a_c_ordered_copy_of_fortran_and_transposed_input():
    worlds = canonical_pq()
    # a partial preorder with a tie, so the quotient proof runs as well
    edges = [("w_pq", "w_p"), ("w_p", "w_pq"), ("w_p", "w_q")]
    source = PreferenceModel.from_edges(worlds, edges)
    for mat in (np.asfortranarray(source.matrix), source.matrix.T.copy().T):
        assert not mat.flags.c_contiguous
        model = PreferenceModel(worlds, mat)
        assert model.matrix.flags.c_contiguous
        assert model_pairs(model) == model_pairs(source)


def test_model_equality_ignores_world_order():
    worlds = canonical_pq()
    a = PreferenceModel.from_edges(worlds, [("w_pq", "w_p")])
    b = PreferenceModel.from_edges(tuple(reversed(worlds)), [("w_pq", "w_p")])
    assert a == b
    c = PreferenceModel.from_edges(worlds, [("w_p", "w_pq")])
    assert a != c


def test_restricted_to_keeps_the_suborder():
    m = chain_fixture()
    sub = m.restricted_to(("w_p", "w_0"))
    assert sub.ids == ("w_p", "w_0")
    assert sub.strictly_below("w_p", "w_0")


def test_tie_class_rendering():
    m = chain_fixture()
    assert m.describe_order() == "w_pq < w_p < w_q < w_0"
    assert all_equal_fixture().describe_order() == "{w_pq ~ w_p ~ w_q ~ w_0}"


# --- min worlds ---------------------------------------------------------------


def test_min_worlds_examples():
    m = chain_fixture()
    assert {w.id for w in min_worlds(m, f("~p"))} == {"w_q"}
    assert min_worlds(m, BOT) == frozenset()
    flat = all_equal_fixture()
    assert {w.id for w in min_worlds(flat, TOP)} == {"w_pq", "w_p", "w_q", "w_0"}


def test_min_worlds_matches_oracle_on_all_trio_preorders():
    for m in preorder_models_on_trio():
        for formula in pool():
            assert {w.id for w in min_worlds(m, formula)} == oracle_min_ids(m, formula)


# --- lexicographic revision ---------------------------------------------------


def test_lex_revise_chain_by_not_p():
    m = chain_fixture()
    out = lex_revise(m, f("~p"))
    expected = chain_model(m.worlds, ["w_q", "w_0", "w_pq", "w_p"])
    assert out.model == expected
    assert out.operator == "lexicographic"


def test_lex_revise_by_constants_keeps_the_order():
    m = chain_fixture()
    assert lex_revise(m, TOP).model == m
    assert lex_revise(m, BOT).model == m


def test_lex_matches_oracle_and_keeps_worlds():
    for m in preorder_models_on_trio():
        for formula in pool():
            out = lex_revise(m, formula).model
            assert model_pairs(out) == oracle_lex_pairs(m, formula)
            assert out.worlds == m.worlds


def test_lex_is_idempotent_on_trio_preorders():
    for m in preorder_models_on_trio():
        for formula in pool():
            once = lex_revise(m, formula).model
            twice = lex_revise(once, formula).model
            assert once == twice


# --- natural revision ---------------------------------------------------------


def test_natural_revise_pinned_orders():
    w1, w2, w3 = trio_worlds()
    m3 = chain_model((w1, w2, w3), ["w1", "w2", "w3"])
    out3 = natural_revise(m3, f("p"))
    assert out3.model == chain_model((w1, w2, w3), ["w2", "w1", "w3"])

    m2 = chain_model((w1, w3), ["w1", "w3"])
    out2 = natural_revise(m2, f("p"))
    assert out2.model == chain_model((w1, w3), ["w3", "w1"])


def test_natural_revise_by_bottom_keeps_the_order():
    m = chain_fixture()
    assert natural_revise(m, BOT).model == m


def test_natural_matches_oracle_on_trio_preorders():
    for m in preorder_models_on_trio():
        for formula in pool():
            out = natural_revise(m, formula).model
            assert model_pairs(out) == oracle_natural_pairs(m, formula)
            assert out.worlds == m.worlds


def test_natural_moves_old_minimum_to_global_minimum():
    for m in preorder_models_on_trio():
        for formula in pool():
            if not m.satisfying(formula):
                continue
            out = natural_revise(m, formula).model
            assert min_worlds(out, TOP) == min_worlds(m, formula)


# --- null change ----------------------------------------------------------------


def test_null_change_is_identity():
    for m in (chain_fixture(), all_equal_fixture()):
        for formula in (f("p"), BOT, f("~p")):
            out = null_change(m, formula)
            assert out.model == m
            assert out.operator == "null"


# --- structural properties ------------------------------------------------------


def test_revision_outputs_always_validate():
    # constructing a PreferenceModel re-checks every invariant, so it is
    # enough that construction succeeds for all fixtures and formulas
    for m in preorder_models_on_trio():
        for formula in pool():
            lex_revise(m, formula)
            natural_revise(m, formula)


def test_enumerate_preorders_counts():
    assert sum(1 for _ in enumerate_preorders(1)) == 1
    assert sum(1 for _ in enumerate_preorders(2)) == 4
    assert sum(1 for _ in enumerate_preorders(3)) == 29


def test_enumerate_preorders_refuses_more_than_four_elements():
    assert sum(1 for _ in enumerate_preorders(4)) == 355
    with pytest.raises(ResourceBoundError, match="5 elements exceed the order enumeration limit of 4"):
        next(enumerate_preorders(5))


@st.composite
def relation_stacks(draw):
    n, size = draw(st.integers(0, 6)), draw(st.integers(0, 5))
    rel = draw(arrays(bool, (size, n, n)))
    return rel | np.eye(n, dtype=bool) if draw(st.booleans()) else rel


@settings(max_examples=300, deadline=None)
@given(relation_stacks())
def test_implied_pairs_match_a_triple_loop_on_stacks(rel):
    implied = _implied(rel)
    assert implied.shape == rel.shape and implied.dtype == bool
    assert np.array_equal(implied, oracle_implied(rel))
    for one, row in zip(rel, implied):
        assert np.array_equal(_implied(one), row)


def test_worlds_can_share_valuations():
    v = Valuation(SIG_PQ, (True, True))
    twins = (World("a", v), World("b", v))
    m = PreferenceModel.from_edges(twins, [("a", "b"), ("b", "a")])
    assert m.leq("a", "b") and m.leq("b", "a")


def test_mixed_signatures_rejected():
    other = Signature(("p", "q", "r"))
    w1 = World("a", Valuation(SIG_PQ, (True, True)))
    w2 = World("b", Valuation(other, (True, True, True)))
    with pytest.raises(ModelInvariantError):
        PreferenceModel.from_edges((w1, w2), [])


@pytest.mark.parametrize("operator", [lex_revise, natural_revise])
def test_revising_a_2048_world_chain_peaks_under_4_5_bytes_per_cell(operator):
    # The peak is four n x n bool arrays: the revised relation, the model's
    # owned copy and the two temporaries of its total-order test.
    atoms = [f"a{i}" for i in range(11)]
    n = 2 ** len(atoms)
    lines = [f"atoms: {' '.join(atoms)}"]
    for w in range(n):
        bits = [w >> (len(atoms) - 1 - i) & 1 for i in range(len(atoms))]
        lines.append(f"world w{w}: " + " & ".join(a if b else f"~{a}" for a, b in zip(atoms, bits)))
    lines += [f"w{w} <= w{w + 1}" for w in range(n - 1)]
    sig, model = parse_model_file("\n".join(lines))
    by = f("a1", sig)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        operator(model, by)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (peak - base) / n**2 <= 4.5
