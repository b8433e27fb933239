"""Priority graphs and their induced preference orders.

A priority graph is a finite set of nodes, each labelled with a
propositional formula, under a strict partial order ``prec`` read as
"strictly more important than". Nodes are identifiers rather than raw
formulas so duplicate labels are representable and adding a node can never
alias an existing one; the induced semantics depends only on labels and on
``prec``. A graph holds ``prec`` as one closed boolean matrix over its
nodes, and construction rejects self-loops and cycles, so no graph in
hand needs a separate validity check.

Graphs come from two constructors. :meth:`PGraph.__init__` takes edges,
closes them with :func:`transitive_closure`, transitive by construction,
and refuses a cycle, the only way its diagonal can hold.
:meth:`PGraph._built` only assigns its fields, for orders this module
wrote closed and made read-only where it built them: :func:`prefix`, which
``transforms`` re-exports, puts a new node above a graph's order,
:func:`graph_from_preorder` builds an antichain, and
:func:`enumerate_pgraphs` shares the matrices of :func:`_closed_orders`,
tested closed in one stacked call per size. So no function here takes a
matrix from a caller, and no graph construction pays a relation product.

The induced order lifts node importance to worlds: ``w`` is at least as
preferred as ``w'`` when every node formula satisfied by ``w'`` is either
satisfied by ``w`` too, or is outranked by a strictly more important node
formula that ``w`` satisfies and ``w'`` does not. The same relation asks
only that ``w`` and ``w'`` differ on some strictly more important node:

- a node that ``w`` satisfies and ``w'`` does not is such a difference;
- a differing node that ``w'`` satisfies and ``w`` does not needs a
  differing node above it in turn;
- ``prec`` is finite and transitive, so this upward chain ends at a node
  that ``w`` satisfies, strictly above the first.

One kernel, :func:`induced_orders`, computes the induced orders of a stack
of graphs over one world tuple. :func:`induced_order` hands it one graph's
label rows and matrix as they are; the harmony sweep hands it every graph
it checks at once, stacked by :func:`_stack`, which pads a graph to the
largest with ``T``-like nodes, true at every world and unordered.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    GraphCycleError,
    GraphSelfLoopError,
    NotRepresentableError,
    SignatureTooLargeError,
)
from .formula import _MEMO_SIZE, Formula, Or, Signature, Valuation
from .semantics import (
    PreferenceModel,
    World,
    _closed_relations,
    _sat_table,
    _sat_vector,
    _strict,
    transitive_closure,
    worlds_for_signature,
)

# Inducing a canonical model materialises a dense 2**n x 2**n relation.
CANONICAL_ATOM_LIMIT = 12


class PGraph:
    """Labelled nodes under a strict importance order.

    ``edges`` holds the stored generator edges. Their transitive closure is
    the effective order, kept as the read-only boolean :attr:`matrix` over
    ``node_ids``: entry ``[a, b]`` says node ``a`` is strictly more
    important than node ``b``. Construction is the only validity check, so
    every graph is a strict partial order. It rejects an edge to an unknown
    node with :class:`ValueError`, then a stored self-loop with
    :class:`GraphSelfLoopError`, then a cycle with :class:`GraphCycleError`
    and a shortest cycle of stored edges. Each names the first offending
    node in node order, so the message does not depend on the hash seed.
    """

    def __init__(
        self,
        labels: Mapping[str, Formula],
        edges: Iterable[tuple[str, str]] = (),
    ):
        self._labels = dict(labels)
        self._edges = frozenset(edges)
        unknown = {end for edge in self._edges for end in edge} - self._labels.keys()
        if unknown:
            raise ValueError(f"edge endpoint {min(unknown)!r} is not a node")
        index = {n: i for i, n in enumerate(self._labels)}
        self._matrix = transitive_closure(
            len(index), [(index[a], index[b]) for a, b in self._edges]
        )
        self._matrix.setflags(write=False)
        loop = next((n for n in self._labels if (n, n) in self._edges), None)
        if loop is not None:
            raise GraphSelfLoopError(loop)
        on_cycle = self._matrix.diagonal()
        if on_cycle.any():
            raise GraphCycleError(self._find_cycle(self.node_ids[on_cycle.argmax()]))

    @classmethod
    def _built(
        cls, labels: dict[str, Formula], edges: frozenset[tuple[str, str]], matrix: np.ndarray
    ) -> PGraph:
        """The graph whose order is ``matrix``, kept as it is: only for orders
        this module wrote strict, closed and read-only (module docstring)."""
        graph = cls.__new__(cls)
        graph._labels, graph._edges, graph._matrix = labels, edges, matrix
        return graph

    @property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(self._labels)

    @property
    def labels(self) -> dict[str, Formula]:
        return dict(self._labels)

    def label(self, node_id: str) -> Formula:
        return self._labels[node_id]

    @property
    def edges(self) -> frozenset[tuple[str, str]]:
        return self._edges

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @functools.cached_property
    def predecessors(self) -> tuple[int, ...]:
        """Each node's strict predecessors as an int node set (bit i is the
        i-th node), read off the closed order's columns on first use and
        kept, as a graph is immutable. Not built at construction: the harmony
        sweep builds 4,296 graphs at bound 3 that never reach a condition."""
        cols = self._matrix.T.tolist()
        return tuple(sum(1 << i for i, on in enumerate(col) if on) for col in cols)

    def __len__(self) -> int:
        return len(self._labels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PGraph):
            return NotImplemented
        return self._labels == other._labels and self.prec() == other.prec()

    def __hash__(self):
        raise TypeError("priority graphs are not hashable")

    def __repr__(self) -> str:
        nodes = ", ".join(f"{n}: {f}" for n, f in self._labels.items())
        rel = ", ".join(f"{a} < {b}" for a, b in sorted(self._edges))
        return f"PGraph({nodes}{'; ' + rel if rel else ''})"

    def prec(self) -> frozenset[tuple[str, str]]:
        """The transitive closure of the stored edges, as id pairs."""
        ids = self.node_ids
        return frozenset((ids[a], ids[b]) for a, b in zip(*np.nonzero(self._matrix)))

    def _find_cycle(self, start: str) -> tuple[str, ...]:
        """A shortest cycle of stored edges through ``start``, found by a
        breadth-first search that takes successors in sorted order."""
        succ: dict[str, list[str]] = {n: [] for n in self._labels}
        for a, b in sorted(self._edges):
            succ[a].append(b)
        parent: dict[str, str] = {}
        frontier = [start]
        while start not in parent:
            reached = []
            for node in frontier:
                for m in succ[node]:
                    if m not in parent:
                        parent[m] = node
                        reached.append(m)
            frontier = reached
        path = [start, parent[start]]
        while path[-1] != start:
            path.append(parent[path[-1]])
        return tuple(reversed(path))

    def fresh_node_id(self) -> str:
        """The first of ``r0``, ``r1``, ... that names no node."""
        k = 0
        while f"r{k}" in self._labels:
            k += 1
        return f"r{k}"


def prefix(graph: PGraph, formula: Formula) -> PGraph:
    """``graph`` with a fresh first node labelled ``formula`` strictly more
    important than every node. The order is written closed, with no closure
    run: the new row is full and its column empty, so the new node is above
    every node and below none, and the old order, strict and closed, follows."""
    new_id, n = graph.fresh_node_id(), len(graph)
    order = np.zeros((n + 1, n + 1), dtype=bool)
    order[0, 1:] = True
    order[1:, 1:] = graph._matrix
    order.setflags(write=False)
    edges = graph._edges | {(new_id, node) for node in graph._labels}
    return PGraph._built({new_id: formula, **graph._labels}, edges, order)


def induced_order(graph: PGraph, worlds: Sequence[World]) -> np.ndarray:
    """The preference relation induced by ``graph`` over ``worlds``, as a
    boolean matrix aligned with the given world order: the stack kernel
    :func:`induced_orders` on one row per label, in node order, and the
    graph's matrix.

    ``w <= w'`` holds iff for every node formula f: (w' |= f implies
    w |= f), or some strictly more important node formula g has w |= g and
    w' |/= g; equivalently, w and w' differ on some node above f (module
    docstring).
    """
    sat = _sat_table(worlds, graph._labels.values())
    return induced_orders(sat[None], graph.matrix[None])[0]


def _stack(graphs: Sequence[PGraph], worlds: Sequence[World]) -> tuple[np.ndarray, np.ndarray]:
    """The padded ``(sat, above)`` input of :func:`induced_orders` for a
    stack of graphs. Each distinct label object is evaluated once, in
    (graph, node) order, so the first graph's leftmost unknown atom raises
    first; ``sat`` is one array of those rows, a padding node taking an
    all-true row, and each graph's order fills its block of ``above``."""
    nodes = [g._labels.values() for g in graphs]
    k = max(map(len, nodes), default=0)
    labels = {id(f): f for fs in nodes for f in fs}
    rows = {key: _sat_vector(worlds, f) for key, f in labels.items()}
    pad = [np.ones(len(worlds), dtype=bool)]
    sat = np.array([[rows[id(f)] for f in fs] + pad * (k - len(fs)) for fs in nodes], dtype=bool)
    above = np.zeros((len(graphs), k, k), dtype=bool)
    for i, g in enumerate(graphs):
        above[i, : len(g), : len(g)] = g.matrix
    return sat.reshape(len(graphs), k, len(worlds)), above


def induced_orders(sat: np.ndarray, above: np.ndarray) -> np.ndarray:
    """The induced orders of a stack of G graphs over one world tuple, as a
    ``(G, W, W)`` boolean array: the array kernel, fed by :func:`_stack`.

    ``sat`` is ``(G, K, W)``: entry ``[g, k, w]`` says world w satisfies
    the label of node k of graph g. ``above`` is ``(G, K, K)``: entry
    ``[g, a, b]`` says node a of graph g is strictly more important than
    node b, closed under transitivity. A graph with fewer than K nodes is
    padded with all-true rows and no order, which, like ``T`` labels,
    change nothing.

    Evaluated for all pairs at once, one node index f at a time, by
    comparing packed satisfaction bits of the nodes above f. Each world's
    node bits are packed once, eight nodes a byte, and a byte is compared
    only where some graph has a node above f in it.
    """
    g, k, w = sat.shape
    codes = np.packbits(sat, axis=1)
    masks = np.packbits(above, axis=1)
    live = masks.any(0).T.tolist()
    out = np.ones((g, w, w), dtype=bool)
    for f in range(k):
        # w' |= f => w |= f, unless w and w' differ on a node above f (module
        # docstring). One comparison: ``~s | s[:, None]``, a bool OR broadcast
        # down a column, is about 15x slower at 4,096 worlds.
        s = sat[:, f]
        keep = s[:, :, None] >= s[:, None, :]
        for b in [b for b, on in enumerate(live[f]) if on]:
            byte = codes[:, b] & masks[:, b, f, None]
            keep |= byte[:, :, None] != byte[:, None, :]
        out &= keep
    return out


def induce_model(graph: PGraph, worlds: Sequence[World]) -> PreferenceModel:
    """Preference model whose relation is the induced order; constructing it
    re-checks reflexivity and transitivity, which on finite models implies
    well-foundedness (an acyclic strict part)."""
    return PreferenceModel(tuple(worlds), induced_order(graph, worlds))


def canonical_model(graph: PGraph, sig: Signature) -> PreferenceModel:
    """The induced model over one world per valuation of ``sig``; this is
    the semantic fingerprint of the graph."""
    if len(sig) > CANONICAL_ATOM_LIMIT:
        raise SignatureTooLargeError(
            f"{len(sig)} atoms exceed the canonical-model bound of {CANONICAL_ATOM_LIMIT}"
        )
    return induce_model(graph, worlds_for_signature(sig))


def graphs_equivalent(g1: PGraph, g2: PGraph, sig: Signature) -> bool:
    """Do the two graphs induce the same canonical model? Since induced
    orders depend on worlds only through valuations, agreement on the
    canonical model implies agreement on every world set."""
    return canonical_model(g1, sig) == canonical_model(g2, sig)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _down_label(down: frozenset[Valuation]) -> Formula:
    """The label of a down-set: its valuations' minterms, by bits descending,
    joined by ``Or`` from the left. One object per set of valuations, so
    every graph built for it shares the label's memoised compilation.
    Bounded like the compile memo: past it a label would be compiled anew
    anyway."""
    ordered = sorted(down, key=lambda v: v.bits, reverse=True)
    return functools.reduce(Or, (v.minterm() for v in ordered))


def graph_from_preorder(model: PreferenceModel) -> PGraph:
    """A priority graph inducing exactly ``model``'s order.

    Construction: an antichain with one node per world, labelled with the
    characteristic formula (a disjunction of valuation minterms) of that
    world's down-set, i.e. the worlds at least as preferred as it. Equal
    down-sets get one label object, reused across calls.

    Requires the model to be valuation-respecting: worlds sharing a
    valuation must be tied, since induced orders cannot distinguish them.
    Raises :class:`NotRepresentableError` otherwise, naming the least pair
    of a valuation's first world and a later world not tied to it. Ties are
    read off the tie key the model's constructor proved, in linear time.
    """
    worlds, mat, tie = model.worlds, model.matrix, model._key
    firsts: dict = {}
    first = np.array([firsts.setdefault(w.valuation, i) for i, w in enumerate(worlds)])
    untied = np.flatnonzero(tie != tie[first])
    if len(untied):
        a, b = min(zip(first[untied], untied))
        raise NotRepresentableError(worlds[a].id, worlds[b].id)
    labels = {
        w.id: _down_label(frozenset(worlds[i].valuation for i in np.flatnonzero(mat[:, j])))
        for j, w in enumerate(worlds)
    }
    antichain = np.zeros((len(worlds), len(worlds)), dtype=bool)
    antichain.setflags(write=False)
    return PGraph._built(labels, frozenset(), antichain)


def strict_orders(n: int) -> Iterator[frozenset[tuple[int, int]]]:
    """All strict partial orders on ``n`` labelled elements, as edge sets of
    index pairs. 1 for n<=1, 3 for n=2, 19 for n=3; n past 4 is refused."""
    for _, matrix in _closed_orders(n):
        yield frozenset(map(tuple, np.argwhere(matrix).tolist()))


@functools.lru_cache(maxsize=None)
def _closed_orders(k: int) -> tuple[tuple[frozenset[tuple[str, str]], np.ndarray], ...]:
    """Each strict partial order on ``k`` nodes, as its edges between
    ``n0``, ``n1``, ... and its matrix: the relations of
    :func:`_closed_relations`, tested closed in one stacked call, that are
    their own strict part. Built once per size, as one read-only stack
    whose matrices graphs may share."""
    rel = _closed_relations(k)
    orders = rel[(_strict(rel) == rel).all(axis=(1, 2))]
    orders.setflags(write=False)
    return tuple(
        (frozenset((f"n{a}", f"n{b}") for a, b in np.argwhere(matrix).tolist()), matrix)
        for matrix in orders
    )


def enumerate_pgraphs(
    pool: Sequence[Formula], max_nodes: int
) -> Iterator[PGraph]:
    """Every graph with up to ``max_nodes`` nodes labelled from ``pool``:
    all label multisets crossed with all strict orders, in a fixed order.
    All sizes' orders are listed first, so an oversized bound raises at once.
    Each graph takes its order's closed matrix as it is."""
    by_size = [_closed_orders(k) for k in range(max_nodes + 1)]
    for k, orders in enumerate(by_size):
        for combo in itertools.combinations_with_replacement(pool, k):
            for edges, matrix in orders:
                labels = {f"n{i}": f for i, f in enumerate(combo)}
                yield PGraph._built(labels, edges, matrix)
