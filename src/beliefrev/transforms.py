"""Transformations on priority graphs and the operators they induce.

A graph transformation maps (graph, formula) to a graph. A transformation
is relevant when it treats equivalent graphs consistently, so that it
induces a well-defined operator on the models those graphs induce.
Relevance quantifies over all graphs and is not decidable by enumeration;
:func:`relevance_check` therefore runs a bounded refutation search that is
sound for "counterexample" and merely inconclusive otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import ResourceBoundError
from .formula import Formula, Signature
from .pgraph import (
    PGraph,
    canonical_model,
    enumerate_pgraphs,
    graph_from_preorder,
    graphs_equivalent,
    induce_model,
)
from .semantics import PreferenceModel, RevisionOutcome


@dataclass(frozen=True)
class GraphTransformation:
    """A named (graph, formula) -> graph procedure. Its output is a
    :class:`PGraph`, so it is a strict partial order by construction."""

    name: str
    fn: Callable[[PGraph, Formula], PGraph]

    def __call__(self, graph: PGraph, formula: Formula) -> PGraph:
        return self.fn(graph, formula)


def prefix(graph: PGraph, formula: Formula) -> PGraph:
    """Add a fresh node labelled ``formula`` strictly more important than
    every existing node; everything else is preserved."""
    new_id = graph.fresh_node_id()
    labels = {new_id: formula, **graph.labels}
    edges = set(graph.edges) | {(new_id, node) for node in graph.node_ids}
    return PGraph(labels, edges)


def null_transform(graph: PGraph, formula: Formula) -> PGraph:
    """The transformation that changes nothing."""
    return graph


PREFIX = GraphTransformation("prefix", prefix)
NULL = GraphTransformation("null", null_transform)

def apply_induced(
    t: GraphTransformation,
    model: PreferenceModel,
    formula: Formula,
    inducing_graph: PGraph | None = None,
) -> RevisionOutcome:
    """Revise a model through its graph form: pick a graph inducing the
    model, transform it, and induce a model back over the same worlds.

    The canonical inducing graph comes from :func:`graph_from_preorder`, so
    the model must be representable. Supplying ``inducing_graph`` overrides
    the choice (after verifying it does induce the model), which lets
    callers cross-check that the outcome does not depend on the graph
    chosen.
    """
    if inducing_graph is None:
        graph = graph_from_preorder(model)
    else:
        if induce_model(inducing_graph, model.worlds) != model:
            raise ValueError("supplied graph does not induce the model")
        graph = inducing_graph
    revised = induce_model(t(graph, formula), model.worlds)
    return RevisionOutcome(revised, f"induced-{t.name}", formula)


@dataclass(frozen=True)
class RelevanceWitness:
    """Equivalent inputs mapped to inequivalent outputs."""

    graph_a: PGraph
    graph_b: PGraph
    formula: Formula
    output_a: PGraph
    output_b: PGraph


@dataclass(frozen=True)
class RelevanceVerdict:
    status: str  # "consistent-on-sample" | "counterexample"
    witness: RelevanceWitness | None
    pairs_checked: int

    @property
    def consistent(self) -> bool:
        return self.status == "consistent-on-sample"


def relevance_check(
    t: GraphTransformation,
    pairs: Sequence[tuple[PGraph, PGraph]],
    formulas: Sequence[Formula],
    sig: Signature,
    node_bound: int = 2,
) -> RelevanceVerdict:
    """Search for equivalent graphs that ``t`` maps to inequivalent graphs.

    Checks the supplied pairs (each must already be equivalent) plus an
    exhaustive sweep of all graphs labelled from ``formulas`` up to
    ``node_bound`` nodes, grouped into equivalence classes; every candidate
    pair is then transformed by each of ``formulas``. A counterexample
    verdict carries a re-verified witness; the absence of one only means
    the sample was consistent.
    """
    if node_bound < 0:
        raise ResourceBoundError(f"node bound {node_bound} is negative")
    candidates: list[tuple[PGraph, PGraph]] = []
    for a, b in pairs:
        if not graphs_equivalent(a, b, sig):
            raise ValueError(
                f"supplied pair is not equivalent: {a!r} vs {b!r}"
            )
        candidates.append((a, b))

    classes: dict[bytes, PGraph] = {}
    for g in enumerate_pgraphs(formulas, node_bound):
        key = canonical_model(g, sig).matrix.tobytes()
        if key in classes:
            candidates.append((classes[key], g))
        else:
            classes[key] = g

    checked = 0
    for a, b in candidates:
        for f in formulas:
            checked += 1
            out_a = t(a, f)
            out_b = t(b, f)
            if not graphs_equivalent(out_a, out_b, sig):
                assert graphs_equivalent(a, b, sig)
                return RelevanceVerdict(
                    "counterexample",
                    RelevanceWitness(a, b, f, out_a, out_b),
                    checked,
                )
    return RelevanceVerdict("consistent-on-sample", None, checked)
