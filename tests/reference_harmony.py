"""The harmony sweep as a loop over graphs, one model at a time.

This is ``beliefrev.harness.sweep_harmony`` as it was before the sweep ran
on stacks of graphs: per graph and per pool formula, it builds the
canonical model of the prefixed graph and the lexicographic revision of
the graph's canonical model, and compares them. It is kept unchanged as
the reference of ``test_harmony_stack.py``.
"""

from __future__ import annotations

from typing import Sequence

from beliefrev.errors import ResourceBoundError
from beliefrev.formula import Formula, Signature, to_text
from beliefrev.harness import DemoReport
from beliefrev.pgraph import canonical_model, enumerate_pgraphs
from beliefrev.semantics import lex_revise
from beliefrev.transforms import prefix


def sweep_harmony(
    bound: int, sig: Signature, pool: Sequence[Formula]
) -> DemoReport:
    """Exhaustively check that prefixing commutes with lexicographic
    revision through the canonical model: for every graph over ``pool``
    with at most ``bound`` nodes and every pool formula, the canonical
    model of the prefixed graph equals the lexicographic revision of the
    original canonical model."""
    if bound < 0:
        raise ResourceBoundError(f"node bound {bound} is negative")
    if bound > 3:
        raise ResourceBoundError(f"node bound {bound} exceeds the sweep limit of 3")
    if len(sig) > 4:
        raise ResourceBoundError(f"{len(sig)} atoms exceed the sweep limit of 4")
    report = DemoReport("harmony")
    report.steps.append(
        f"pool: {[to_text(f) for f in pool]}; node bound: {bound}; atoms: {list(sig)}"
    )
    instances = 0
    mismatches: list[tuple[str, str]] = []
    for graph in enumerate_pgraphs(pool, bound):
        base = canonical_model(graph, sig)
        for f in pool:
            instances += 1
            via_graph = canonical_model(prefix(graph, f), sig)
            via_model = lex_revise(base, f).model
            if via_graph != via_model:
                mismatches.append((repr(graph), to_text(f)))
    report.steps.append(f"checked {instances} (graph, formula) instances")
    report.check(
        f"prefixing agrees with lexicographic revision on all {instances} instances",
        not mismatches,
    )
    report.data = {
        "instances": instances,
        "mismatches": mismatches,
        "node_bound": bound,
        "pool": [to_text(f) for f in pool],
        "atoms": list(sig),
    }
    return report
