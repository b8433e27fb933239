"""Finite preference models and the semantic revision operators.

A preference model is a finite set of worlds carrying valuations, plus a
reflexive transitive relation ``leq`` read as "at least as preferred as"
(minimal worlds are the most plausible ones). On finite models the
well-foundedness of the strict part amounts to its acyclicity, which follows
from transitivity and so is not checked separately: a strict cycle would
make the successor of its first step at least as preferred as its start.
The relation is stored as a dense boolean matrix so pairwise queries during
postulate sweeps are O(1). Closing generator edges is one depth-first pass,
:func:`transitive_closure`, with one row OR per edge.

Proving transitivity takes quadratic work plus one product over the tie
classes. A total preorder, which chain graphs induce and lexicographic
revision keeps total, is accepted by comparing it with the order of its
up-set sizes, and its tie classes are the runs of equal sizes. Any other
reflexive relation M is decided on its quotient. Let r map each world to
the first world with the same row of M, and Q be M restricted to the
image of r. Rows are constant on r's blocks, and M is transitive iff
columns are too on the rows of r's image, ``M[r(i), j] == M[r(i), r(j)]``,
and Q is transitive:

- if M is transitive, worlds with equal rows are tied, as each row holds
  its own world, and tied worlds share rows and columns: r's blocks are
  the tie classes, r's image their first worlds, and Q, a restriction of
  M, is transitive;
- if both hold, ``M[i, j] == M[r(i), r(j)]``, so ``M[i, j]`` and
  ``M[j, k]`` give ``Q[r(i), r(j)]`` and ``Q[r(j), r(k)]``, hence
  ``Q[r(i), r(k)]``, which is ``M[i, k]``.

Every other relation question is answered with boolean masks and the one
exact relation product ``_compose``. It runs on the quotient, on the class
order of a partial preorder, and over all worlds only to name the witness
of a relation already shown not to be transitive.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ModelInvariantError, ResourceBoundError, WorldSetMismatchError
from .formula import Formula, Signature, Valuation, _compiled


@dataclass(frozen=True)
class World:
    """A possible world: an opaque id plus a valuation. Distinct worlds may
    share a valuation."""

    id: str
    valuation: Valuation


@functools.lru_cache(maxsize=8)
def worlds_for_signature(sig: Signature) -> tuple[World, ...]:
    """One world per valuation, in canonical valuation order, cached per signature.

    Ids name the atoms true at the world (``w_pq``, ``w_p``, ``w_0``, ...).
    Falls back to positional ids if atom names would collide when joined.
    """
    valuations = list(sig.valuations())
    ids = []
    for v in valuations:
        true = v.true_atoms()
        ids.append("w_" + ("".join(true) if true else "0"))
    if len(set(ids)) != len(ids):
        ids = [f"w{i}" for i in range(len(valuations))]
    return tuple(World(i, v) for i, v in zip(ids, valuations))


def _sat_vector(worlds: Sequence[World], formula: Formula) -> np.ndarray:
    """Which of ``worlds``, all over one signature, satisfy ``formula``. No
    worlds carry no signature, so they give an empty vector, unevaluated."""
    if not worlds:
        return np.zeros(0, dtype=bool)
    fn = _compiled(formula, worlds[0].valuation.signature)
    return np.array([fn(w.valuation.bits) for w in worlds], dtype=bool)


def _sat_table(worlds: Sequence[World], formulas: Iterable[Formula]) -> np.ndarray:
    """One :func:`_sat_vector` row per formula, shaped ``(len(formulas),
    len(worlds))`` even when there are no formulas."""
    rows = [_sat_vector(worlds, f) for f in formulas]
    return np.array(rows, dtype=bool).reshape(len(rows), len(worlds))


def _compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Relational composition of two boolean matrices."""
    # A float32 sum of non-negative terms is zero only when every term is,
    # so ``> 0`` is exact at any size, unlike a fixed-width integer count.
    # A square shares one float32 copy.
    a32 = a.astype(np.float32)
    return (a32 @ (a32 if b is a else b.astype(np.float32))) > 0


def _equal_rows(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's first equal row, and those first rows in order."""
    n = len(mat)
    width = -(-n // 8)
    packed = np.packbits(mat, axis=1).tobytes()
    first: dict[bytes, int] = {}
    rep = [first.setdefault(packed[i * width : (i + 1) * width], i) for i in range(n)]
    return np.array(rep), np.array(list(first.values()))


def _strict(m: np.ndarray) -> np.ndarray:
    """The strict part of a relation, or of each in a stack of them."""
    return m & ~m.swapaxes(-1, -2)


def _minimal(s: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The worlds of ``s`` that no world of ``s`` is strictly below in ``m``;
    each row of a stack of world sets, against each relation of a stack of
    them, on its own. Only the worlds some set holds are read."""
    held = s.reshape(-1, s.shape[-1]).any(axis=0).nonzero()[0]
    t, sub = s[..., held], m.take(held, axis=-1).take(held, axis=-2)
    below = (t[..., :, None] & _strict(sub)).any(axis=-2)
    out = np.zeros(below.shape[:-1] + s.shape[-1:], dtype=bool)
    out[..., held] = t & ~below
    return out


def transitive_closure(n: int, pairs: Iterable[tuple[int, int]]) -> np.ndarray:
    """The transitive closure of the edges ``pairs`` over nodes ``0..n-1``,
    as a C-contiguous ``(n, n)`` bool matrix. A node reaches itself only on
    a cycle, a self-loop included.

    One iterative pass of Tarjan's depth-first search closes the relation
    (Nuutila 1995): a strongly connected component finishes after every
    component it reaches, so its members share one row, the OR of
    ``1 << 8 * w | reach[w]`` over their successors ``w``. Rows are
    Python-int bitsets with one byte per node: bit ``8 * j`` of row ``i`` is
    set when ``i`` reaches ``j``, so each row's bytes are its matrix row.
    """
    succ: list[list[int]] = [[] for _ in range(n)]
    for a, b in pairs:
        succ[a].append(b)
    reach = [0] * n
    # DFS number: 0 before the visit, and above every number once finished,
    # so an edge into a finished component never lowers a ``low`` link. A
    # node without successors starts finished, its row empty.
    finished, counter = n + 1, 0
    num, low = [0 if out else finished for out in succ], [0] * n
    stack: list[int] = []
    for root in range(n):
        if num[root]:
            continue
        counter += 1
        num[root] = low[root] = counter
        stack.append(root)
        path = [(root, iter(succ[root]))]
        while path:
            v, edges = path[-1]
            for w in edges:
                if not num[w]:
                    counter += 1
                    num[w] = low[w] = counter
                    stack.append(w)
                    path.append((w, iter(succ[w])))
                    break
                if num[w] < low[v]:
                    low[v] = num[w]
            else:
                path.pop()
                if path and low[v] < low[path[-1][0]]:
                    low[path[-1][0]] = low[v]
                if low[v] == num[v]:
                    members = [stack.pop()]
                    while members[-1] != v:
                        members.append(stack.pop())
                    row = 0
                    for m in members:
                        for w in succ[m]:
                            row |= 1 << 8 * w | reach[w]
                    for m in members:
                        reach[m], num[m] = row, finished
    rows = bytearray().join([row.to_bytes(n, "little") for row in reach])
    return np.frombuffer(rows, dtype=bool).reshape(n, n)


class PreferenceModel:
    """Worlds plus a reflexive transitive ``leq`` with acyclic strict part.

    Immutable once constructed; the relation matrix rows and columns follow
    the order in which worlds were supplied. Construction proves
    transitivity in O(n^2) plus one product over the C tie classes, as the
    module docstring shows. Only a relation shown not transitive pays the
    n x n product, whose first missing pair names the error.
    """

    def __init__(self, worlds: Sequence[World], matrix: np.ndarray):
        worlds = tuple(worlds)
        if not worlds:
            raise ModelInvariantError("a model needs at least one world")
        ids = [w.id for w in worlds]
        if len(set(ids)) != len(ids):
            dup = next(i for i in ids if ids.count(i) > 1)
            raise ModelInvariantError(f"duplicate world id {dup!r}")
        sig = worlds[0].valuation.signature
        if any(w.valuation.signature is not sig and w.valuation.signature != sig for w in worlds):
            raise ModelInvariantError("worlds mix different signatures")

        mat = np.array(matrix, dtype=bool, order="C")
        n = len(worlds)
        if mat.shape != (n, n):
            raise ModelInvariantError(
                f"relation shape {mat.shape} does not match {n} worlds"
            )
        if not mat.diagonal().all():
            bad = ids[int(np.argmin(mat.diagonal()))]
            raise ModelInvariantError(f"relation is not reflexive at {bad!r}")
        # A total preorder is the order of its up-set sizes. Any other
        # relation is decided on its quotient over r (module docstring).
        up = mat.sum(1)
        rep = reps = None
        if not (mat == (up[:, None] >= up)).all():
            rep, reps = _equal_rows(mat)
            quotient = mat.take(reps, 0)
            constant = (quotient.take(rep, 1) == quotient).all()
            quotient = quotient.take(reps, 1)
            if not constant or (_compose(quotient, quotient) & ~quotient).any():
                missing = _compose(mat, mat) & ~mat
                a, b = (int(x) for x in np.argwhere(missing)[0])
                raise ModelInvariantError(
                    f"relation is not transitive: {ids[a]!r} <= {ids[b]!r} is implied but absent"
                )

        mat.setflags(write=False)
        self._worlds = worlds
        self._matrix = mat
        self._index = {w.id: i for i, w in enumerate(worlds)}
        # What the proof found, for the order queries: the up-set sizes,
        # and for a relation that is not total, r and its image.
        self._up, self._rep, self._reps = up, rep, reps

    # --- constructors ---------------------------------------------------

    @classmethod
    def from_edges(
        cls, worlds: Sequence[World], edges: Iterable[tuple[str, str]]
    ) -> "PreferenceModel":
        """Build from generator edges, taking the reflexive transitive
        closure. Ties are expressed by edges in both directions."""
        worlds = tuple(worlds)
        index = {w.id: i for i, w in enumerate(worlds)}
        pairs = []
        for a, b in edges:
            for end in (a, b):
                if end not in index:
                    raise ModelInvariantError(f"edge endpoint {end!r} is not a world")
            pairs.append((index[a], index[b]))
        closure = transitive_closure(len(worlds), pairs)
        np.fill_diagonal(closure, True)
        return cls(worlds, closure)

    # --- accessors --------------------------------------------------------

    @property
    def worlds(self) -> tuple[World, ...]:
        return self._worlds

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(w.id for w in self._worlds)

    @property
    def signature(self) -> Signature:
        return self._worlds[0].valuation.signature

    def world(self, world_id: str) -> World:
        return self._worlds[self._index[world_id]]

    def index(self, world_id: str) -> int:
        return self._index[world_id]

    def leq(self, a: str, b: str) -> bool:
        """Is ``a`` at least as preferred as ``b``?"""
        return bool(self._matrix[self._index[a], self._index[b]])

    def strictly_below(self, a: str, b: str) -> bool:
        return self.leq(a, b) and not self.leq(b, a)

    def pairs(self) -> frozenset[tuple[str, str]]:
        ids = self.ids
        return frozenset(
            (ids[a], ids[b]) for a, b in zip(*np.nonzero(self._matrix))
        )

    def satisfying(self, formula: Formula) -> tuple[World, ...]:
        return tuple(itertools.compress(self._worlds, _sat_vector(self._worlds, formula)))

    def restricted_to(self, ids: Iterable[str]) -> "PreferenceModel":
        """Submodel over a subset of worlds, in this model's world order."""
        keep = np.array(sorted(self._index[i] for i in ids), dtype=np.intp)
        sub = self._matrix[keep[:, None], keep]
        return PreferenceModel(tuple(self._worlds[i] for i in keep), sub)

    def tie_classes(self) -> list[list[str]]:
        """Partition of world ids into mutual-preference classes, ordered by
        preference (most preferred class first, id tiebreak inside)."""
        return _class_order(self)[0]

    def describe_order(self) -> str:
        """Readable one-line rendering, e.g. ``w_pq < w_p < {w_q ~ w_0}``."""
        return _describe(self.tie_classes())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PreferenceModel):
            return NotImplemented
        try:
            return np.array_equal(self._matrix, _aligned(self, other))
        except WorldSetMismatchError:
            return False

    def __hash__(self):
        raise TypeError("preference models are not hashable")

    def __repr__(self) -> str:
        return f"PreferenceModel({self.describe_order()})"


def _aligned(model: PreferenceModel, other: PreferenceModel) -> np.ndarray:
    """``other``'s relation in ``model``'s world order, ``other.matrix`` itself
    for equal world tuples. The one world-set check: raises
    :class:`WorldSetMismatchError` unless the worlds and valuations match."""
    if model.worlds == other.worlds:
        return other.matrix
    if set(model.ids) != set(other.ids):
        raise WorldSetMismatchError(
            f"models do not share a world set: {sorted(model.ids)} vs {sorted(other.ids)}"
        )
    for w in model.worlds:
        if other.world(w.id).valuation != w.valuation:
            raise WorldSetMismatchError(f"world {w.id!r} changed valuation")
    rows = np.array([other.index(i) for i in model.ids])
    return other.matrix.take(rows, 0).take(rows, 1)


def _tie_key(model: PreferenceModel) -> np.ndarray:
    """One entry per world, equal exactly for tied worlds, as the
    constructor proved: up-set sizes for a total preorder, else r."""
    return model._up if model._rep is None else model._rep


def _class_order(model: PreferenceModel) -> tuple[list[list[str]], np.ndarray | None]:
    """Tie classes in preference order, and the strict order between them.

    Classes are sorted by layer, then by the id of their representative,
    the class's first world in world order; ids inside a class keep world
    order. Entry ``[a, b]`` of the matrix says class ``a`` is strictly more
    preferred than class ``b``, read off the representatives. The matrix is
    ``None`` when the class order is total: each class is then strictly
    more preferred than every later one. Both cases read what the
    constructor proved: a total preorder's classes are its runs of equal
    up-set sizes, larger sizes first; another relation's are r's blocks.
    """
    ids = model.ids
    if model._rep is None:
        up = model._up
        order = np.argsort(-up, kind="stable")
        members = [ids[i] for i in order.tolist()]
        cuts = (np.flatnonzero(np.diff(up[order])) + 1).tolist()
        return [members[a:b] for a, b in zip([0] + cuts, cuts + [len(ids)])], None
    rep, reps = model._rep, model._reps
    # One stable sort lists the worlds class by class, in representative
    # order, each class in world order.
    members = [ids[i] for i in np.argsort(rep, kind="stable").tolist()]
    ends = np.cumsum(np.bincount(rep)[reps]).tolist()
    groups = [members[a:b] for a, b in zip([0] + ends, ends)]
    # Two representatives are never tied, so off the diagonal their
    # relation is the strict one. The class order is not total, or the
    # relation would be a total preorder.
    below = model.matrix[reps[:, None], reps]
    np.fill_diagonal(below, False)
    preds = below.sum(axis=0)
    c = len(reps)
    # A class's layer is the longest strict chain below it. Ordering by
    # predecessor count is topological, as the strict part is transitive.
    layer = np.zeros(c, dtype=np.int64)
    for k in np.argsort(preds):
        layer[k] = layer[below[:, k]].max(initial=-1) + 1
    order = np.array(sorted(range(c), key=lambda k: (layer[k], ids[reps[k]])))
    return [groups[k] for k in order], below[order[:, None], order]


def _describe(classes: list[list[str]]) -> str:
    return " < ".join(
        group[0] if len(group) == 1 else "{" + " ~ ".join(group) + "}"
        for group in classes
    )


def _generators(
    model: PreferenceModel,
) -> tuple[list[list[str]], list[tuple[str, str]]]:
    """Tie classes, plus generator edges whose reflexive transitive closure
    is the relation: a cycle through each tie class, then the transitive
    reduction of the class order between representatives, sorted. A total
    class order is reduced to its consecutive pairs; only a partial one
    needs the product."""
    classes, below = _class_order(model)
    edges = [
        edge
        for group in classes
        if len(group) > 1
        for edge in zip(group, group[1:] + group[:1])
    ]
    reps = [group[0] for group in classes]
    if below is None:
        cover = list(zip(reps, reps[1:]))
    else:
        rows, cols = np.nonzero(below & ~_compose(below, below))
        cover = [(reps[a], reps[b]) for a, b in zip(rows.tolist(), cols.tolist())]
    return classes, edges + sorted(cover)


@dataclass(frozen=True, eq=False)
class RevisionOutcome:
    """Result of applying a dynamic operator: a model over the same worlds
    and valuations as the input, tagged with the operator and formula."""

    model: PreferenceModel
    operator: str
    formula: Formula


def min_worlds(model: PreferenceModel, formula: Formula) -> frozenset[World]:
    """The most preferred worlds satisfying ``formula``; empty iff no world
    satisfies it."""
    minimal = _minimal(_sat_vector(model.worlds, formula), model.matrix)
    return frozenset(itertools.compress(model.worlds, minimal))


def lex_revise(model: PreferenceModel, formula: Formula) -> RevisionOutcome:
    """Lexicographic revision: all satisfying worlds become strictly more
    preferred than all others; order inside each block is untouched."""
    revised = _lex(_sat_vector(model.worlds, formula), model.matrix)
    return RevisionOutcome(
        PreferenceModel(model.worlds, revised), "lexicographic", formula
    )


def _lex(sat: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """The lexicographic revision of ``matrix`` by the worlds ``sat`` marks:
    across the two blocks a world is preferred iff it satisfies the formula,
    and inside each block ``matrix`` stands. ``sat`` is ``(..., W)`` and
    ``matrix`` ``(..., W, W)``; leading axes broadcast."""
    return np.where(sat[..., :, None] == sat[..., None, :], matrix, sat[..., :, None])


def natural_revise(model: PreferenceModel, formula: Formula) -> RevisionOutcome:
    """Natural revision: only the most preferred satisfying worlds are
    promoted, becoming the globally most preferred; the rest keep their
    relative order."""
    min_vec = _minimal(_sat_vector(model.worlds, formula), model.matrix)
    revised = min_vec[:, None] | (model.matrix & ~min_vec)
    return RevisionOutcome(
        PreferenceModel(model.worlds, revised), "natural", formula
    )


def null_change(model: PreferenceModel, formula: Formula) -> RevisionOutcome:
    """The change that changes nothing."""
    return RevisionOutcome(model, "null", formula)


def _preorder_edges(n: int) -> Iterator[frozenset[tuple[int, int]]]:
    """Every set of off-diagonal index pairs on ``n`` elements whose
    reflexive closure is transitive, by brute force over the 2^(n(n-1))
    subsets in a fixed order; past n = 4 (4,096 subsets) it raises first."""
    if n > 4:
        raise ResourceBoundError(f"{n} elements exceed the order enumeration limit of 4")
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    for picks in itertools.product((False, True), repeat=len(cells)):
        chosen = frozenset(c for c, on in zip(cells, picks) if on)
        if all(a == d or (a, d) in chosen for a, b in chosen for c, d in chosen if b == c):
            yield chosen


def enumerate_preorders(n: int) -> Iterator[np.ndarray]:
    """All reflexive transitive relations on ``n`` elements, in a fixed
    order. There are 4 for n=2 and 29 for n=3; n past 4 is refused."""
    for edges in _preorder_edges(n):
        mat = np.eye(n, dtype=bool)
        for i, j in edges:
            mat[i, j] = True
        yield mat
