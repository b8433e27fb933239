"""Priority graphs and their induced preference orders.

A priority graph is a finite set of nodes, each labelled with a
propositional formula, under a strict partial order ``prec`` read as
"strictly more important than". Nodes are identifiers rather than raw
formulas so duplicate labels are representable and adding a node can never
alias an existing one; the induced semantics depends only on labels and on
``prec``.

The induced order lifts node importance to worlds: ``w`` is at least as
preferred as ``w'`` when every node formula satisfied by ``w'`` is either
satisfied by ``w`` too, or is outranked by a strictly more important node
formula that ``w`` satisfies and ``w'`` does not.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    GraphCycleError,
    GraphSelfLoopError,
    NotRepresentableError,
    SignatureTooLargeError,
    UnknownAtomError,
)
from .formula import Formula, Or, Signature, eval_formula
from .semantics import (
    PreferenceModel,
    World,
    _compose,
    _preorder_edges,
    transitive_closure,
    worlds_for_signature,
)

# Inducing a canonical model materialises a dense 2**n x 2**n relation.
CANONICAL_ATOM_LIMIT = 12


class PGraph:
    """Labelled nodes under a strict importance order.

    ``edges`` holds the stored generator edges; the effective order is their
    transitive closure, available as :meth:`prec`. Construction accepts any
    edge set over known nodes; :meth:`validate` rejects self-loops and
    cycles.
    """

    def __init__(
        self,
        labels: Mapping[str, Formula],
        edges: Iterable[tuple[str, str]] = (),
    ):
        self._labels = dict(labels)
        edges = frozenset(edges)
        for a, b in edges:
            if a not in self._labels or b not in self._labels:
                missing = a if a not in self._labels else b
                raise ValueError(f"edge endpoint {missing!r} is not a node")
        self._edges = edges

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

    @cached_property
    def _closure(self) -> frozenset[tuple[str, str]]:
        ids = self.node_ids
        index = {n: i for i, n in enumerate(ids)}
        mat = np.zeros((len(ids), len(ids)), dtype=bool)
        for a, b in self._edges:
            mat[index[a], index[b]] = True
        closed = transitive_closure(mat)
        return frozenset(
            (ids[a], ids[b]) for a, b in zip(*np.nonzero(closed))
        )

    def prec(self) -> frozenset[tuple[str, str]]:
        """The transitive closure of the stored edges."""
        return self._closure

    def validate(self) -> None:
        """Confirm ``prec`` is a strict partial order.

        Raises :class:`GraphSelfLoopError` for a stored self-loop and
        :class:`GraphCycleError` (with an offending cycle) when the closure
        is not irreflexive.
        """
        for a, b in self._edges:
            if a == b:
                raise GraphSelfLoopError(a)
        for a, b in self.prec():
            if a == b:
                raise GraphCycleError(self._find_cycle(a))

    def _find_cycle(self, start: str) -> tuple[str, ...]:
        succ: dict[str, list[str]] = {n: [] for n in self._labels}
        for a, b in self._edges:
            succ[a].append(b)
        path = [start]
        seen = {start}
        node = start
        while True:
            nxt = next(
                (m for m in succ[node] if (m, start) in self.prec() or m == start),
                None,
            )
            if nxt is None or nxt == start or nxt in seen:
                path.append(start)
                return tuple(path)
            path.append(nxt)
            seen.add(nxt)
            node = nxt

    def fresh_node_id(self, stem: str = "n") -> str:
        k = 0
        while f"{stem}{k}" in self._labels:
            k += 1
        return f"{stem}{k}"


def induced_order(graph: PGraph, worlds: Sequence[World]) -> np.ndarray:
    """The preference relation induced by ``graph`` over ``worlds``, as a
    boolean matrix aligned with the given world order.

    ``w <= w'`` holds iff for every node formula f: (w' |= f implies
    w |= f), or some strictly more important node formula g has w |= g and
    w' |/= g. Evaluated for all pairs at once, one node at a time, via the
    node satisfaction table.
    """
    graph.validate()
    worlds = tuple(worlds)
    ids = graph.node_ids
    n, m = len(ids), len(worlds)
    sat = np.array(
        [[eval_formula(graph.label(node), w.valuation) for w in worlds] for node in ids],
        dtype=bool,
    )
    index = {node: i for i, node in enumerate(ids)}
    prec = np.zeros((n, n), dtype=bool)
    for a, b in graph.prec():
        prec[index[a], index[b]] = True
    out = np.ones((m, m), dtype=bool)
    for f in range(n):
        # w' |= f => w |= f, or some g above f has w |= g and w' |/= g
        above = sat[prec[:, f]]
        out &= ~sat[f] | sat[f][:, None] | _compose(above.T, ~above)
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
    for node in graph.node_ids:
        for atom in graph.label(node).atoms():
            if atom not in sig:
                raise UnknownAtomError(atom)
    return induce_model(graph, worlds_for_signature(sig))


def graphs_equivalent(g1: PGraph, g2: PGraph, sig: Signature) -> bool:
    """Do the two graphs induce the same canonical model? Since induced
    orders depend on worlds only through valuations, agreement on the
    canonical model implies agreement on every world set."""
    m1 = canonical_model(g1, sig)
    m2 = canonical_model(g2, sig)
    return np.array_equal(m1.matrix, m2.matrix)


def _disjunction_of_minterms(valuations) -> Formula:
    ordered = sorted(valuations, key=lambda v: v.bits, reverse=True)
    out: Formula = ordered[0].minterm()
    for v in ordered[1:]:
        out = Or(out, v.minterm())
    return out


def graph_from_preorder(model: PreferenceModel) -> PGraph:
    """A priority graph inducing exactly ``model``'s order.

    Construction: an antichain with one node per world, labelled with the
    characteristic formula (a disjunction of valuation minterms) of that
    world's down-set, i.e. the worlds at least as preferred as it.

    Requires the model to be valuation-respecting: worlds sharing a
    valuation must be tied, since induced orders cannot distinguish them.
    Raises :class:`NotRepresentableError` otherwise.
    """
    worlds, mat = model.worlds, model.matrix
    codes: dict = {}
    valuation = np.array([codes.setdefault(w.valuation, len(codes)) for w in worlds])
    untied = np.argwhere(np.triu((valuation[:, None] == valuation) & ~(mat & mat.T), 1))
    if len(untied):
        a, b = untied[0]
        raise NotRepresentableError(worlds[a].id, worlds[b].id)
    labels: dict[str, Formula] = {}
    for j, w in enumerate(worlds):
        down = {worlds[i].valuation for i in np.flatnonzero(mat[:, j])}
        labels[w.id] = _disjunction_of_minterms(down)
    return PGraph(labels)


def strict_orders(n: int) -> Iterator[frozenset[tuple[int, int]]]:
    """All strict partial orders on ``n`` labelled elements, as edge sets of
    index pairs. 1 for n<=1, 3 for n=2, 19 for n=3."""
    for edges in _preorder_edges(n):
        if not any((b, a) in edges for a, b in edges):
            yield edges


def enumerate_pgraphs(
    pool: Sequence[Formula], max_nodes: int
) -> Iterator[PGraph]:
    """Every graph with up to ``max_nodes`` nodes labelled from ``pool``:
    all label multisets crossed with all strict orders, in a fixed order."""
    for k in range(max_nodes + 1):
        for combo in itertools.combinations_with_replacement(pool, k):
            for order in strict_orders(k):
                labels = {f"n{i}": f for i, f in enumerate(combo)}
                edges = {(f"n{a}", f"n{b}") for a, b in order}
                yield PGraph(labels, edges)
