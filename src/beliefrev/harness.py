"""Executable demonstrations and exhaustive sweeps.

Three entry points:

* :func:`demo_fact_cb` shows that no graph transformation can satisfy both
  faithfulness and conditional-belief conservation, by exhibiting one graph
  that induces two models whose natural revisions impose conflicting orders
  on the same valuation pair.
* :func:`demo_fact_min` shows that no single formula can pick out the most
  preferred satisfying worlds across all models induced by one graph, by
  finding two induced models with contradictory requirements on one
  valuation.
* :func:`sweep_harmony` checks exhaustively that prefixing a graph agrees
  with lexicographic revision of its canonical model.

Each demo re-runs every assertion it reports; the verdict is true iff all
assertions hold.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .errors import ResourceBoundError
from .formula import Atom, Formula, Signature, Valuation, to_text
from .pgraph import (
    PGraph,
    canonical_model,
    enumerate_pgraphs,
    graph_from_preorder,
    induce_model,
)
from .postulates import check_cb, check_faith
from .semantics import (
    PreferenceModel,
    World,
    _minimal,
    _sat_vector,
    lex_revise,
    natural_revise,
)
from .transforms import prefix


@dataclass(frozen=True)
class DemoAssertion:
    description: str
    holds: bool


@dataclass
class DemoReport:
    """Narrative steps plus machine-checked assertions."""

    demo: str
    steps: list[str] = field(default_factory=list)
    assertions: list[DemoAssertion] = field(default_factory=list)
    data: dict = field(default_factory=dict)

    @property
    def verdict(self) -> bool:
        return all(a.holds for a in self.assertions)

    def check(self, description: str, holds: bool) -> bool:
        self.assertions.append(DemoAssertion(description, bool(holds)))
        return bool(holds)

    def render(self) -> str:
        lines = [f"demo {self.demo}"]
        for step in self.steps:
            lines.append(f"  {step}")
        for i, a in enumerate(self.assertions, start=1):
            mark = "ok" if a.holds else "FAIL"
            lines.append(f"  [{i}] {mark}: {a.description}")
        lines.append(f"  verdict: {'true' if self.verdict else 'false'}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {**asdict(self), "verdict": self.verdict}


def demo_fact_cb() -> DemoReport:
    """No graph transformation satisfies both faithfulness and
    conditional-belief conservation.

    One graph induces both a three-world chain and its two-world submodel.
    Natural revision (which satisfies both postulates) sends them to orders
    that disagree on the shared valuation pair, and induced orders are
    determined by valuations, so no single transformed graph can induce
    both required outcomes.
    """
    report = DemoReport("fact-cb")
    sig = Signature(("p", "q"))
    p = Atom("p")
    w1 = World("w1", Valuation(sig, (False, True)))
    w2 = World("w2", Valuation(sig, (True, False)))
    w3 = World("w3", Valuation(sig, (True, True)))

    chain3 = PreferenceModel.from_edges((w1, w2, w3), [("w1", "w2"), ("w2", "w3")])
    chain2 = PreferenceModel.from_edges((w1, w3), [("w1", "w3")])
    report.steps.append(f"three-world model: {chain3.describe_order()}")
    report.steps.append(f"two-world model:   {chain2.describe_order()}")

    shared = graph_from_preorder(chain3)
    report.steps.append(
        "shared graph: antichain of down-set formulas of the three-world model"
    )
    report.check(
        "the shared graph induces the three-world model",
        induce_model(shared, chain3.worlds) == chain3,
    )
    report.check(
        "the shared graph induces the two-world model",
        induce_model(shared, chain2.worlds) == chain2,
    )

    target3 = natural_revise(chain3, p)
    expected3 = PreferenceModel.from_edges(
        (w1, w2, w3), [("w2", "w1"), ("w1", "w3")]
    )
    faith3 = check_faith(chain3, p, target3.model).holds
    cb3 = check_cb(chain3, p, target3.model).holds
    report.steps.append(f"natural revision by p, three worlds: {target3.model.describe_order()}")
    report.check(
        "three-world natural revision gives w2 < w1 < w3 and satisfies faith and cb",
        target3.model == expected3 and faith3 and cb3,
    )

    target2 = natural_revise(chain2, p)
    expected2 = PreferenceModel.from_edges((w1, w3), [("w3", "w1")])
    faith2 = check_faith(chain2, p, target2.model).holds
    cb2 = check_cb(chain2, p, target2.model).holds
    report.steps.append(f"natural revision by p, two worlds:   {target2.model.describe_order()}")
    report.check(
        "two-world natural revision gives w3 < w1 and satisfies faith and cb",
        target2.model == expected2 and faith2 and cb2,
    )

    # Induced orders see only valuations, and restricting a world set
    # restricts the induced order pointwise; so one output graph would have
    # to order the valuation pair (~p & q, p & q) both ways at once.
    restricted = target3.model.restricted_to(("w1", "w3"))
    conflict = (
        restricted.strictly_below("w1", "w3")
        and target2.model.strictly_below("w3", "w1")
    )
    report.check(
        "the two required orders conflict on the valuation pair (~p & q, p & q)",
        conflict,
    )
    report.data = {
        "three_world_revised": target3.model.describe_order(),
        "two_world_revised": target2.model.describe_order(),
        "conflict_valuations": [
            w1.valuation.describe(),
            w3.valuation.describe(),
        ],
        "restricted_three_world": restricted.describe_order(),
    }
    return report


# The search builds all 2**(2**n) - 1 canonical world subsets and the
# refutation enumerates all 2**(2**n) truth tables.
FACT_MIN_ATOM_LIMIT = 3


def demo_fact_min(graph: PGraph, by: Formula, sig: Signature) -> DemoReport:
    """No single formula selects the most preferred ``by``-worlds in every
    model induced by ``graph``.

    Searches the non-empty subsets of the canonical world set for two
    induced models that put contradictory requirements on one valuation:
    most preferred and satisfying in one model, present but not most
    preferred (or not satisfying) in the other. Truth of a formula at a
    world depends only on its valuation, so such a clash refutes every
    candidate formula; the refutation is re-checked by enumerating all
    truth tables over the signature.
    """
    if len(sig) > FACT_MIN_ATOM_LIMIT:
        raise ResourceBoundError(
            f"{len(sig)} atoms exceed the demo bound of {FACT_MIN_ATOM_LIMIT}"
        )
    report = DemoReport("fact-min")
    report.steps.append(f"graph: {graph!r}")
    report.steps.append(f"selecting most preferred worlds of: {to_text(by)}")
    # Induced orders restrict pointwise, so the submodel on a world subset is
    # the canonical relation restricted to it. Subsets are the rows of
    # ``subsets``, in itertools.combinations order, singletons first.
    canonical = canonical_model(graph, sig)
    worlds = canonical.worlds
    n = len(worlds)
    combos = [c for size in range(1, n + 1) for c in itertools.combinations(range(n), size)]
    subsets = np.array([[i in combo for i in range(n)] for combo in combos])
    sat = _sat_vector(worlds, by)
    minimal = _minimal(subsets & sat, canonical.matrix)
    # A world selected in some submodel is selected in its own singleton,
    # which precedes every larger subset; so the first clashing pair of
    # submodels is the singleton of the first world that satisfies ``by``
    # and is unselected in some subset, and the first such subset.
    unselected = subsets & sat & ~minimal

    if not unselected.any():
        report.check(
            "two induced models with conflicting selection requirements exist",
            False,
        )
        report.data = {"status": "not-found"}
        return report

    first, second = np.argwhere(unselected.T)[0]
    valuation = worlds[first].valuation
    model_a = canonical.restricted_to([worlds[first].id])
    model_b = canonical.restricted_to(worlds[i].id for i in combos[second])
    min_a = frozenset([valuation])
    min_b = frozenset(worlds[i].valuation for i in np.flatnonzero(minimal[second]))
    report.steps.append(f"model A over {[w.id for w in model_a.worlds]}: {model_a.describe_order()}")
    report.steps.append(f"model B over {[w.id for w in model_b.worlds]}: {model_b.describe_order()}")
    report.check(
        "the two models have different most-preferred valuation sets",
        min_a != min_b,
    )
    report.check(
        f"valuation ({valuation.describe()}) must be selected in model A",
        valuation in min_a,
    )
    report.check(
        f"valuation ({valuation.describe()}) is present but must not be selected in model B",
        valuation in {w.valuation for w in model_b.worlds}
        and valuation not in min_b,
    )

    # Every formula over sig denotes one of the 2**(2**n) truth tables, and
    # every table is a formula (a disjunction of minterms); so checking all
    # tables refutes all formulas.
    all_valuations = list(sig.valuations())
    selects_both = False
    for table in itertools.product((False, True), repeat=len(all_valuations)):
        truth = dict(zip(all_valuations, table))
        ok_a = all(
            truth[w.valuation] == (w.valuation in min_a)
            for w in model_a.worlds
        )
        ok_b = all(
            truth[w.valuation] == (w.valuation in min_b)
            for w in model_b.worlds
        )
        if ok_a and ok_b:
            selects_both = True
            break
    report.check(
        "no truth table over the signature selects the most preferred "
        "worlds in both models",
        not selects_both,
    )
    report.data = {
        "status": "witness-found",
        "worlds_a": [w.id for w in model_a.worlds],
        "worlds_b": [w.id for w in model_b.worlds],
        "min_valuations_a": sorted(v.describe() for v in min_a),
        "min_valuations_b": sorted(v.describe() for v in min_b),
        "clash_valuation": valuation.describe(),
    }
    return report


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
