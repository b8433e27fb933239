"""Differential test: the order queries against their loop reference.

``reference_orders`` holds the per-pair ``leq`` loops that tie classes, the
class reduction, minimal worlds and model equality used before they became
matrix operations. Every rendering and every answer here must match it
exactly. World ids are chosen so that their string order differs from the
world order, since the two orders break different ties.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_orders as reference
from beliefrev import PreferenceModel, Valuation, World
from beliefrev.errors import ModelInvariantError
from beliefrev.files import dump_model, model_to_dot
from beliefrev.formula import BOT, TOP
from beliefrev.semantics import _minimal, enumerate_preorders, min_worlds
from helpers import SIG_PQ, canonical_pq, pool

FORMULAS = pool() + (TOP, BOT)


def assert_same_queries(model, other):
    assert model.tie_classes() == reference.tie_classes(model)
    assert model.describe_order() == reference.describe_order(model)
    assert dump_model(model) == reference.dump_model(SIG_PQ, model)
    assert model_to_dot(model) == reference.model_to_dot(model)
    for formula in FORMULAS:
        assert min_worlds(model, formula) == reference.min_worlds(model, formula)
    assert (model == other) == reference.equal(model, other)


def reversed_copy(model):
    return PreferenceModel(model.worlds[::-1], model.matrix[::-1, ::-1])


def test_all_four_world_preorders_match_the_loop_reference():
    ids = ("w2", "w10", "w0", "w1")
    worlds = tuple(World(i, w.valuation) for i, w in zip(ids, canonical_pq()))
    models = [PreferenceModel(worlds, mat) for mat in enumerate_preorders(4)]
    assert len(models) == 355
    for model, following in zip(models, models[1:] + models[:1]):
        assert_same_queries(model, reversed_copy(model))
        assert_same_queries(model, reversed_copy(following))


@st.composite
def preorders(draw):
    n = draw(st.integers(1, 12))
    ids = [f"w{k}" for k in draw(st.permutations(range(n)))]
    valuations = [
        Valuation(SIG_PQ, draw(st.tuples(st.booleans(), st.booleans()))) for _ in ids
    ]
    index = st.integers(0, n - 1)
    mat = np.eye(n, dtype=bool)
    for a, b in draw(st.lists(st.tuples(index, index), max_size=2 * n)):
        mat[a, b] = True
    for k in range(n):  # Warshall's closure
        mat |= mat[:, k : k + 1] & mat[k]
    return PreferenceModel([World(i, v) for i, v in zip(ids, valuations)], mat)


@settings(max_examples=100, deadline=None)
@given(preorders(), preorders())
def test_random_preorders_match_the_loop_reference(model, other):
    assert_same_queries(model, reversed_copy(model))
    assert_same_queries(model, other)


# --- minimal worlds of stacks of sets and of relations ---------------------------


def loop_minimal(model, held):
    """The loop reference's minimal worlds of the submodel on the world
    indices ``held``, as a mask over ``model``'s worlds."""
    ids = [model.ids[k] for k in held]
    found = reference.min_worlds(model.restricted_to(ids), TOP) if ids else ()
    return np.isin(model.ids, [w.id for w in found])


@settings(max_examples=100, deadline=None)
@given(preorders(), st.data())
def test_minimal_worlds_of_a_stack_of_subsets_match_the_loop_reference(model, data):
    n = len(model.worlds)
    rows = data.draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n), max_size=6))
    subsets = np.array(rows, dtype=bool).reshape(len(rows), n)
    got = _minimal(subsets, model.matrix)
    assert got.shape == subsets.shape
    for row, subset in zip(got, subsets):
        assert (row == loop_minimal(model, np.flatnonzero(subset))).all()


def test_minimal_worlds_against_a_stack_of_relations_are_taken_relation_by_relation():
    rng = np.random.default_rng(5)
    relations = np.array(list(enumerate_preorders(4)))
    worlds = canonical_pq()
    for _ in range(200):
        stack = relations[rng.choice(len(relations), size=3)]
        subsets = rng.random((5, 4)) < rng.random()
        models = [PreferenceModel(worlds, m) for m in stack]
        expected = [[loop_minimal(m, np.flatnonzero(s)) for m in models] for s in subsets]
        assert (_minimal(subsets[:, None], stack) == expected).all()
        assert (_minimal(subsets[0], stack) == expected[0]).all()
        assert (_minimal(subsets, stack[0]) == [row[0] for row in expected]).all()


# --- transitivity: the up-set count test against the product --------------------


@st.composite
def reflexive_relations(draw):
    """A reflexive relation on 1-12 worlds of one of three kinds. Each
    starts closed: a total preorder from ranks, or the closure of random
    pairs. A "cycle" relation is then completed and given a strict
    3-cycle; an "arbitrary" one has up to n * n cells flipped, the
    diagonal kept, so that it is often one cell away from a closed one."""
    kind = draw(st.sampled_from(("closed", "cycle", "arbitrary")))
    n = draw(st.integers(3 if kind == "cycle" else 1, 12))
    index = st.integers(0, n - 1)
    if draw(st.booleans()):
        rank = np.array(draw(st.lists(st.integers(0, n), min_size=n, max_size=n)))
        mat = rank[:, None] <= rank
    else:
        mat = np.eye(n, dtype=bool)
        for a, b in draw(st.lists(st.tuples(index, index), max_size=2 * n)):
            mat[a, b] = True
        for k in range(n):  # Warshall's closure
            mat |= mat[:, k : k + 1] & mat[k]
    if kind == "cycle":
        mat |= ~mat.T
        a, b, c = draw(st.permutations(range(n)))[:3]
        for x, y in ((a, b), (b, c), (c, a)):
            mat[x, y], mat[y, x] = True, False
    elif kind == "arbitrary":
        for a, b in draw(st.lists(st.tuples(index, index), min_size=1, max_size=n * n)):
            mat[a, b] = a == b or not mat[a, b]
    ids = [f"w{k}" for k in draw(st.permutations(range(n)))]
    return ids, mat


def error_text(build):
    try:
        build()
    except ModelInvariantError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(reflexive_relations())
def test_transitivity_matches_the_product_check(relation):
    ids, mat = relation
    worlds = [World(i, Valuation(SIG_PQ, (True, True))) for i in ids]
    expected = error_text(lambda: reference.check_transitive(ids, mat))
    assert error_text(lambda: PreferenceModel(worlds, mat)) == expected


# --- large total preorders ---------------------------------------------------------


@st.composite
def large_total_preorders(draw):
    """A total preorder on 13-300 worlds: runs of tied worlds laid out in a
    shuffled world order, under shuffled ids."""
    n = draw(st.integers(13, 300))
    classes = draw(st.integers(1, n))
    rng = draw(st.randoms(use_true_random=False))
    rank = np.zeros(n, dtype=np.int64)
    for cut in rng.sample(range(1, n), classes - 1):
        rank[cut:] += 1
    rng.shuffle(rank)
    ids = [f"w{k}" for k in rng.sample(range(n), n)]
    worlds = [World(i, rng.choice(canonical_pq()).valuation) for i in ids]
    return PreferenceModel(worlds, rank[:, None] <= rank)


@settings(max_examples=6, deadline=None)
@given(large_total_preorders())
def test_large_total_preorders_match_the_loop_reference(model):
    assert model.tie_classes() == reference.tie_classes(model)
    assert model.describe_order() == reference.describe_order(model)
    assert dump_model(model) == reference.dump_model(SIG_PQ, model)
    assert model_to_dot(model) == reference.model_to_dot(model)


# --- transitivity on the tie-class quotient ------------------------------------


@st.composite
def block_expansions(draw):
    """A preorder on 13-300 worlds expanded from a random class order:
    tie classes of 1-40 worlds, the class order the closure of random
    pairs (so usually partial), the worlds shuffled. Returns the relation,
    each world's class, and a seeded random source for the mutations."""
    n = draw(st.integers(13, 300))
    rng = draw(st.randoms(use_true_random=False))
    sizes = []
    while sum(sizes) < n:
        sizes.append(rng.randint(1, min(40, n - sum(sizes))))
    c = len(sizes)
    order = np.eye(c, dtype=bool)
    for _ in range(rng.randint(0, 2 * c)):
        a, b = rng.randrange(c), rng.randrange(c)
        order[a, b] = order[a, b] or a < b
    for k in range(c):  # Warshall's closure
        order |= order[:, k : k + 1] & order[k]
    cls = np.repeat(np.arange(c), sizes)
    rng.shuffle(cls)
    return order[cls][:, cls], cls, rng


def flip_inside_a_tie_block(mat, cls, rng):
    tied = [k for k in set(cls.tolist()) if (cls == k).sum() > 1]
    if tied:
        i, j = rng.sample(np.flatnonzero(cls == rng.choice(tied)).tolist(), 2)
        mat[i, j] = False


def flip_between_blocks(mat, cls, rng):
    i = rng.randrange(len(cls))
    others = np.flatnonzero(cls != cls[i]).tolist()
    if others:
        j = rng.choice(others)
        mat[i, j] = not mat[i, j]


def make_a_block_non_constant(mat, cls, rng):
    """Flip one world's row, or one world's column, inside a block
    between two classes, the first of them tied."""
    tied = [k for k in set(cls.tolist()) if (cls == k).sum() > 1]
    if tied and len(set(cls.tolist())) > 1:
        a = rng.choice(tied)
        b = rng.choice(sorted(set(cls.tolist()) - {a}))
        i = rng.choice(np.flatnonzero(cls == a).tolist())
        strip = cls == b
        if rng.random() < 0.5:
            mat[i, strip] = ~mat[i, strip]
        else:
            mat[strip, i] = ~mat[strip, i]


@settings(max_examples=40, deadline=None)
@given(block_expansions())
def test_quotient_transitivity_matches_the_product_check(expansion):
    built, cls, rng = expansion
    ids = [f"w{k}" for k in rng.sample(range(len(cls)), len(cls))]
    worlds = [World(i, Valuation(SIG_PQ, (True, True))) for i in ids]
    for mutate in (None, flip_inside_a_tie_block, flip_between_blocks, make_a_block_non_constant):
        mat = built.copy()
        if mutate is not None:
            mutate(mat, cls, rng)
        expected = error_text(lambda: reference.check_transitive(ids, mat))
        assert error_text(lambda: PreferenceModel(worlds, mat)) == expected
        if mutate is None:
            assert expected is None


# --- tie classes as equal rows ------------------------------------------------------


@st.composite
def tie_free_partial_orders(draw):
    """A partial order on 13-300 worlds without ties: the closure of random
    pairs that each point forward in a hidden ranking, laid out in a
    shuffled world order. Returns the relation and a seeded random source."""
    n = draw(st.integers(13, 300))
    rng = draw(st.randoms(use_true_random=False))
    rank = rng.sample(range(n), n)
    mat = np.eye(n, dtype=bool)
    for _ in range(rng.randint(1, 2 * n)):
        a, b = rng.randrange(n), rng.randrange(n)
        mat[a, b] = mat[a, b] or rank[a] < rank[b]
    for k in range(n):  # Warshall's closure
        mat |= mat[:, k : k + 1] & mat[k]
    return mat, rng


@settings(max_examples=15, deadline=None)
@given(tie_free_partial_orders())
def test_tie_free_partial_orders_match_the_product_check(order):
    built, rng = order
    n = len(built)
    ids = [f"w{k}" for k in rng.sample(range(n), n)]
    worlds = [World(i, Valuation(SIG_PQ, (True, True))) for i in ids]
    for flips in range(3):
        mat = built.copy()
        for _ in range(flips):
            flip_between_blocks(mat, np.arange(n), rng)
        expected = error_text(lambda: reference.check_transitive(ids, mat))
        assert error_text(lambda: PreferenceModel(worlds, mat)) == expected
        if not flips:
            assert expected is None
            classes = PreferenceModel(worlds, mat).tie_classes()
            assert sorted(classes) == sorted([i] for i in ids)
            # Listed most preferred first: no world after one strictly below it.
            position = np.empty(n, dtype=np.int64)
            position[[ids.index(group[0]) for group in classes]] = np.arange(n)
            below, above = np.nonzero(mat & ~mat.T)
            assert (position[below] < position[above]).all()


@st.composite
def shared_rows(draw):
    """A preorder on 3-40 worlds in which world j is then given world i's
    row, so the two are tied, while their columns differ: not transitive,
    although the quotient over the first world of each row class is often
    transitive, so that only the column check rejects it."""
    n = draw(st.integers(3, 40))
    index = st.integers(0, n - 1)
    mat = np.eye(n, dtype=bool)
    for a, b in draw(st.lists(st.tuples(index, index), max_size=2 * n)):
        mat[a, b] = True
    for k in range(n):  # Warshall's closure
        mat |= mat[:, k : k + 1] & mat[k]
    i, j, k = draw(st.permutations(range(n)))[:3]
    mat[i, j] = True
    mat[j] = mat[i]
    if mat[k, i] == mat[k, j]:
        mat[k, i] = not mat[k, i]
    ids = [f"w{x}" for x in draw(st.permutations(range(n)))]
    return ids, mat, (i, j)


@settings(max_examples=200, deadline=None)
@given(shared_rows())
def test_a_shared_row_without_a_shared_column_is_not_transitive(relation):
    ids, mat, (i, j) = relation
    assert (mat[i] == mat[j]).all() and not (mat[:, i] == mat[:, j]).all()
    worlds = [World(w, Valuation(SIG_PQ, (True, True))) for w in ids]
    for m in (mat, mat.T.copy()):  # a shared row, then a shared column
        expected = error_text(lambda: reference.check_transitive(ids, m))
        assert expected is not None
        assert error_text(lambda: PreferenceModel(worlds, m)) == expected
