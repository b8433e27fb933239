"""Iterated-revision postulate checkers.

Two families live here. The semantic checkers take a model, the revision
formula, and the revised model, and test the postulate definitions (DP-1 to
DP-4, recalcitrance, independence, faithfulness, and conditional-belief
conservation); each pair postulate is one boolean mask over world pairs.
The syntactic checkers take a priority graph, the formula, and a transformed
graph, and decide the finite quantifications over node labels that are
sufficient for the corresponding postulate when they hold of a
transformation on every input; all but recalcitrance are one counterpart
search between the two graphs, as boolean masks over node pairs built from
one truth row per label over the canonical worlds of the signature.

Every failing report carries witnesses that re-verify against the raw
definition. The syntactic conditions are sufficient only; their converses
are not asserted anywhere. Quantifiers range over node labels including
duplicates, which is safe because duplicate labels are semantically
idempotent, and all equivalences are signature-relative. Every syntactic
checker first raises :class:`UnknownAtomError` for the leftmost atom outside
the signature, in the revision formula, then the original labels, then the
transformed labels.

The syntactic checkers cost 2^n per label for n atoms, with no bound below
the signature's 20: at 18 atoms on a 2-node graph, ``cond_dp1`` took 1.5 to
2.0 s and 153 MB peak RSS, ``cond_rec`` 1.0 to 1.3 s (2-core x86-64 Linux).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import WorldSetMismatchError
from .formula import BOT, TOP, Formula, Signature, _compiled, entails, equivalent
from .pgraph import PGraph
from .semantics import (
    PreferenceModel, _compose, _minimal, _sat_table, _sat_vector, _strict, _world_mismatch,
    worlds_for_signature,
)


class _Verdict:
    """A failing verdict always carries at least one witness."""

    def __post_init__(self):
        if not self.holds and not self.witnesses:
            raise ValueError("failing report needs a witness")


@dataclass(frozen=True)
class PostulateReport(_Verdict):
    """Verdict of one semantic postulate on one (model, formula, model)
    triple. Witnesses are world-id pairs (or single ids for faithfulness),
    sorted for reproducibility; a false verdict always carries at least
    one."""

    postulate: str
    holds: bool
    witnesses: tuple[tuple[str, ...], ...] = ()


@dataclass(frozen=True)
class ConditionReport(_Verdict):
    """Verdict of one syntactic sufficient condition on one
    (graph, formula, graph) triple. Witnesses are (clause, node id,
    formula text) tuples locating the failure."""

    condition: str
    holds: bool
    witnesses: tuple[tuple[str, str, str], ...] = ()


# --- semantic checkers -------------------------------------------------------
#
# Every checker reads three arrays indexed in sorted world-id order: ``s``
# marks the worlds satisfying the revision formula, ``b`` and ``a`` are the
# relations before and after. A postulate is a mask whose set cells, in
# row-major order, are its witnesses: world pairs, or single worlds for
# faithfulness, which holds outright when no world satisfies the formula.


_MASKS = {
    "dp1": lambda s, b, a: s[:, None] & s & (b != a),
    "dp2": lambda s, b, a: ~s[:, None] & ~s & (b != a),
    "dp3": lambda s, b, a: s[:, None] & ~s & _strict(b) & ~_strict(a),
    "dp4": lambda s, b, a: s[:, None] & ~s & b & ~a,
    "rec": lambda s, b, a: s[:, None] & ~s & ~_strict(a),
    "ind": lambda s, b, a: s[:, None] & ~s & b & ~_strict(a),
    "faith": lambda s, b, a: (_minimal(s, b) != _minimal(np.ones_like(s), a)) & s.any(),
    "cb": lambda s, b, a: ~_minimal(s, b)[:, None] & ~_minimal(s, b) & (b != a),
}


def postulates(
    before: PreferenceModel, by: Formula, after: PreferenceModel,
    names: Sequence[str] = tuple(_MASKS),
) -> list[PostulateReport]:
    """One report per name in ``names``, all of ``SEMANTIC_CHECKS`` by
    default, from one alignment of the two models; a repeated name repeats
    its report. Raises :class:`WorldSetMismatchError` when the models do
    not share their worlds with equal valuations."""
    reason = _world_mismatch(before, after)
    if reason is not None:
        raise WorldSetMismatchError(reason)
    ids = sorted(before.ids)
    b_rows = np.array([before.index(i) for i in ids])
    a_rows = np.array([after.index(i) for i in ids])
    s = _sat_vector(before.worlds, by)[b_rows]
    b = before.matrix.take(b_rows, 0).take(b_rows, 1)
    a = after.matrix.take(a_rows, 0).take(a_rows, 1)
    reports = {}
    for name in dict.fromkeys(names):
        cells = [[ids[k] for k in axis.tolist()] for axis in np.nonzero(_MASKS[name](s, b, a))]
        bad = tuple(zip(*cells))
        reports[name] = PostulateReport(name, not bad, bad)
    return [reports[name] for name in names]


def check_dp1(before: PreferenceModel, by: Formula, after: PreferenceModel) -> PostulateReport:
    """Inside the revision formula the order is untouched: for satisfying
    w, w' the revised order agrees with the original, both ways."""
    return postulates(before, by, after, ("dp1",))[0]


def check_dp2(before: PreferenceModel, by: Formula, after: PreferenceModel) -> PostulateReport:
    """Outside the revision formula the order is untouched."""
    return postulates(before, by, after, ("dp2",))[0]


def check_dp3(before: PreferenceModel, by: Formula, after: PreferenceModel) -> PostulateReport:
    """A satisfying world strictly preferred to a non-satisfying one stays
    strictly preferred."""
    return postulates(before, by, after, ("dp3",))[0]


def check_dp4(before: PreferenceModel, by: Formula, after: PreferenceModel) -> PostulateReport:
    """A satisfying world weakly preferred to a non-satisfying one stays
    weakly preferred."""
    return postulates(before, by, after, ("dp4",))[0]


def check_rec(before: PreferenceModel, by: Formula, after: PreferenceModel) -> PostulateReport:
    """Recalcitrance: after revising, every satisfying world is strictly
    preferred to every non-satisfying world."""
    return postulates(before, by, after, ("rec",))[0]


def check_ind(before: PreferenceModel, by: Formula, after: PreferenceModel) -> PostulateReport:
    """Independence: weak preference of a satisfying world over a
    non-satisfying one becomes strict."""
    return postulates(before, by, after, ("ind",))[0]


def check_faith(before: PreferenceModel, by: Formula, after: PreferenceModel) -> PostulateReport:
    """Faithfulness: when the formula is satisfiable in the model, its most
    preferred worlds before revision are exactly the globally most
    preferred worlds afterwards."""
    return postulates(before, by, after, ("faith",))[0]


def check_cb(before: PreferenceModel, by: Formula, after: PreferenceModel) -> PostulateReport:
    """Conditional-belief conservation: among worlds outside the most
    preferred satisfying set, the order is untouched, both ways."""
    return postulates(before, by, after, ("cb",))[0]


SEMANTIC_CHECKS = {
    "dp1": check_dp1, "dp2": check_dp2, "dp3": check_dp3, "dp4": check_dp4,
    "rec": check_rec, "ind": check_ind, "faith": check_faith, "cb": check_cb,
}


# --- syntactic sufficient conditions -----------------------------------------
#
# Below, "before" nodes/edges are those of the original graph and "after"
# nodes/edges those of the transformed graph; prec edges are compared after
# transitive closure. A label relation is a mask over (original, transformed)
# label pairs, read off truth rows over the canonical worlds: ``s`` for the
# revision formula, ``f`` for original labels (one axis wider, to broadcast)
# and ``g`` for transformed labels.


_RELATIONS = {
    # equivalence after conjunction with the revision formula, or its negation
    "by": lambda s, f, g: ((f == g) | ~s).all(-1),
    "not_by": lambda s, f, g: ((f == g) | s).all(-1),
    # by & f entails g, and ~by & g entails f
    "inside": lambda s, f, g: ~((s & f & ~g) | (~s & g & ~f)).any(-1),
}


class _Counterparts:
    """The counterpart search of the DP-1 to DP-4 and independence conditions
    on one (before, by, after) triple, as boolean masks over node pairs:
    ``rel[b, a]`` relates original node b to transformed node a, and
    ``is_by[a]`` marks transformed labels equivalent to the revision formula.
    An atom outside ``sig`` raises first, as the module docstring says."""

    def __init__(self, before: PGraph, by: Formula, after: PGraph, sig: Signature, relation: str):
        worlds = worlds_for_signature(sig)
        self.s, self.graphs = _sat_vector(worlds, by), (before, after)
        f, self.g = (_sat_table(worlds, graph.labels.values()) for graph in (before, after))
        self.rel = _RELATIONS[relation](self.s, f[:, None], self.g)
        self.is_by = (self.g == self.s).all(-1)

    def unmatched(self, clause: str, outer_after: bool, match_after: bool,
                  excuse: bool = False, anchored: bool = False) -> list[tuple[str, str, str]]:
        """Witnesses for the outer graph's nodes that have no counterpart.

        A counterpart is a related node of the other graph. Of the pair, the
        transformed node (``match_after``) or else the original one has each
        strict predecessor related to some strict predecessor of the other,
        unless ``excuse`` is set and that predecessor is equivalent to the
        revision formula. Transformed outer nodes equivalent to the revision
        formula are skipped; ``anchored`` further requires transformed outer
        nodes to entail it or to have a strict predecessor equivalent to it.
        """
        rel, is_by = self.rel, self.is_by
        up_b, up_a = (g.matrix for g in self.graphs)
        if match_after:
            bad = _compose(~(_compose(up_b.T, rel) | (excuse & is_by)), up_a)
        else:
            bad = _compose(up_b.T, ~_compose(rel, up_a))
        pairs = rel & ~bad
        if outer_after:
            ok = pairs.any(0)
            if anchored:
                ok &= ~(self.g & ~self.s).any(-1) | (up_a & is_by[:, None]).any(0)
            ok |= is_by
        else:
            ok = pairs.any(1)
        outer = self.graphs[outer_after]
        return [(clause, n, str(outer.label(n))) for n, good in zip(outer.node_ids, ok) if not good]


def cond_dp1(before: PGraph, by: Formula, after: PGraph, sig: Signature) -> ConditionReport:
    """Sufficient condition for DP-1.

    Both directions of a label correspondence modulo conjunction with the
    revision formula: every original node has a counterpart in the
    transformed graph whose new strict predecessors are either equivalent
    to the revision formula or counterparts of old strict predecessors, and
    symmetrically for every transformed node not equivalent to the revision
    formula.
    """
    search = _Counterparts(before, by, after, sig, "by")
    bad = search.unmatched("1", outer_after=False, match_after=True, excuse=True)
    bad += search.unmatched("2", outer_after=True, match_after=False)
    return ConditionReport("dp1", not bad, tuple(bad))


def cond_dp2(before: PGraph, by: Formula, after: PGraph, sig: Signature) -> ConditionReport:
    """Sufficient condition for DP-2: the DP-1 correspondence with the
    negated revision formula, predecessors matched in the forward direction
    for original nodes and excused by the revision formula for transformed
    nodes."""
    search = _Counterparts(before, by, after, sig, "not_by")
    bad = search.unmatched("1", outer_after=False, match_after=False)
    bad += search.unmatched("2", outer_after=True, match_after=True, excuse=True)
    return ConditionReport("dp2", not bad, tuple(bad))


def cond_dp3(before: PGraph, by: Formula, after: PGraph, sig: Signature) -> ConditionReport:
    """Sufficient condition for DP-3: every original node has a transformed
    counterpart agreeing with it inside the revision formula (one-way
    entailments) whose new strict predecessors are the revision formula or
    counterparts of old strict predecessors."""
    search = _Counterparts(before, by, after, sig, "inside")
    bad = search.unmatched("1", outer_after=False, match_after=True, excuse=True)
    return ConditionReport("dp3", not bad, tuple(bad))


def cond_dp4(before: PGraph, by: Formula, after: PGraph, sig: Signature) -> ConditionReport:
    """Sufficient condition for DP-4: every transformed node is equivalent
    to the revision formula or corresponds to an original node, with old
    strict predecessors matched by new strict predecessors of the
    transformed node."""
    search = _Counterparts(before, by, after, sig, "inside")
    bad = search.unmatched("1", outer_after=True, match_after=False)
    return ConditionReport("dp4", not bad, tuple(bad))


def cond_rec(before: PGraph, by: Formula, after: PGraph, sig: Signature) -> ConditionReport:
    """Sufficient condition for recalcitrance: every transformed node is
    trivial, entails the revision formula, or is outranked by a consistent
    node entailing it; and some original node entails the revision formula.

    Holding on a single triple does not guarantee the semantic postulate on
    that triple; the guarantee is for transformations satisfying the
    condition on all inputs.
    """
    for formula in (by, *before.labels.values(), *after.labels.values()):
        _compiled(formula, sig)  # raises at the leftmost unknown atom, in the documented order
    bad: list[tuple[str, str, str]] = []
    labels = after.labels
    # column j of the closed order marks the strict predecessors of node j
    for (n_xi, xi), column in zip(labels.items(), after.matrix.T.tolist()):
        if equivalent(xi, TOP, sig) or equivalent(xi, BOT, sig):
            continue
        if entails(xi, by, sig):
            continue
        if any(
            not equivalent(psi, BOT, sig) and entails(psi, by, sig)
            for psi in itertools.compress(labels.values(), column)
        ):
            continue
        bad.append(("1", n_xi, str(xi)))

    if not any(entails(xi, by, sig) for xi in before.labels.values()):
        bad.append(("2", "-", str(by)))

    return ConditionReport("rec", not bad, tuple(bad))


def cond_ind(before: PGraph, by: Formula, after: PGraph, sig: Signature) -> ConditionReport:
    """Sufficient condition for independence: the DP-4 style correspondence
    plus, for transformed nodes not entailing the revision formula, a
    strict predecessor equivalent to it."""
    search = _Counterparts(before, by, after, sig, "inside")
    bad = search.unmatched("1", outer_after=True, match_after=True, anchored=True)
    return ConditionReport("ind", not bad, tuple(bad))


CONDITION_CHECKS = {
    "dp1": cond_dp1, "dp2": cond_dp2, "dp3": cond_dp3,
    "dp4": cond_dp4, "rec": cond_rec, "ind": cond_ind,
}
