"""Iterated-revision postulate checkers.

Two families live here. The semantic checkers take a model, the revision
formula, and the revised model, and test the postulate definitions (DP-1 to
DP-4, recalcitrance, independence, faithfulness, and conditional-belief
conservation); each pair postulate is one boolean mask over world pairs.
The syntactic checkers take a priority graph, the formula, and a transformed
graph, and decide the finite quantifications over node labels that are
sufficient for the corresponding postulate when they hold of a
transformation on every input; all but recalcitrance are one counterpart
search between the two graphs, over the graphs' own strict-predecessor
node sets (:attr:`PGraph.predecessors`) and integer node sets built from one
integer truth table per label (bit k is the label's value at the k-th
valuation of the signature), memoised with the label's compiled code.

Every failing report carries witnesses that re-verify against the raw
definition. The syntactic conditions are sufficient only; their converses
are not asserted anywhere. Quantifiers range over node labels including
duplicates, which is safe because duplicate labels are semantically
idempotent, and all equivalences are signature-relative. Every syntactic
checker first raises :class:`UnknownAtomError` for the leftmost atom outside
the signature, in the revision formula, then the original labels, then the
transformed labels.

The syntactic checkers cost 2^n per label for n atoms, with no bound below
the signature's 20: at 18 atoms on a 2-node graph, ``cond_dp1`` took 0.05 to
0.15 s and 29 MB peak RSS as the first call of a fresh process, ``cond_rec``
0.4 to 0.6 s (2-core x86-64 Linux).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .formula import BOT, TOP, Formula, Signature, _compiled, _table, entails, equivalent
from .pgraph import PGraph
from .semantics import PreferenceModel, _aligned, _minimal, _sat_vector, _strict


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
# Every checker reads three arrays in the before model's world order: ``s``
# marks the worlds satisfying the revision formula, ``b`` and ``a`` are the
# relations before and after. A postulate is a mask whose set cells are its
# witnesses, row-major over sorted world ids: world pairs, or single worlds
# for faithfulness, which holds outright when no world satisfies the formula.


_MASKS = {
    "dp1": lambda s, b, a: s[:, None] & s & (b != a),
    "dp2": lambda s, b, a: ~s[:, None] & ~s & (b != a),
    "dp3": lambda s, b, a: s[:, None] & ~s & _strict(b) & ~_strict(a),
    "dp4": lambda s, b, a: s[:, None] & ~s & b & ~a,
    "rec": lambda s, b, a: s[:, None] & ~s & ~_strict(a),
    "ind": lambda s, b, a: s[:, None] & ~s & b & ~_strict(a),
    "faith": lambda s, b, a: (_minimal(s, b) != _minimal(np.ones_like(s), a)) & s.any(),
    "cb": lambda s, b, a: ~(m := _minimal(s, b))[:, None] & ~m & (b != a),
}


def postulates(
    before: PreferenceModel, by: Formula, after: PreferenceModel,
    names: Sequence[str] = tuple(_MASKS),
) -> list[PostulateReport]:
    """One report per name in ``names``, all of ``SEMANTIC_CHECKS`` by
    default, from one alignment of the two models; a repeated name repeats
    its report. Raises :class:`WorldSetMismatchError` when the models do
    not share their worlds with equal valuations, before the formula is
    evaluated. Only a failing mask is put into sorted world-id order."""
    a = _aligned(before, after)
    s, b, ids = _sat_vector(before.worlds, by), before.matrix, before.ids
    rank = None
    reports = {}
    for name in dict.fromkeys(names):
        mask = _MASKS[name](s, b, a)
        bad = ()
        if mask.any():
            if rank is None:
                rank = np.array(sorted(range(len(ids)), key=ids.__getitem__))
            for axis in range(mask.ndim):
                mask = mask.take(rank, axis)
            bad = tuple(zip(*[[ids[k] for k in rank[cells].tolist()] for cells in np.nonzero(mask)]))
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
# transitive closure. A label relation is a test on one (original,
# transformed) label pair, read off integer truth tables over the valuations
# of the signature: ``s`` for the revision formula, ``f`` for the original
# label and ``g`` for the transformed one.


_RELATIONS = {
    # equivalence after conjunction with the revision formula, or its negation
    "by": lambda s, f, g: not (f ^ g) & s,
    "not_by": lambda s, f, g: not (f ^ g) & ~s,
    # by & f entails g, and ~by & g entails f
    "inside": lambda s, f, g: not (s & f & ~g | g & ~f & ~s),
}


def _union(sets: Sequence[int], nodes: int) -> int:
    """The union of ``sets[i]`` over the members i of the node set ``nodes``."""
    out = 0
    for i, members in enumerate(sets):
        if nodes >> i & 1:
            out |= members
    return out


class _Counterparts:
    """The counterpart search of the DP-1 to DP-4 and independence conditions
    on one (before, by, after) triple, over int node sets: ``rel[0][b]`` is
    the set of transformed nodes related to original node b, ``rel[1][a]``
    the set of original nodes related to transformed node a,
    ``preds[side][n]`` the strict predecessors of node n of that side, as
    the graph holds them (:attr:`PGraph.predecessors`), and
    ``is_by`` the transformed nodes whose labels are equivalent to the
    revision formula. An atom outside ``sig`` raises first, as the module
    docstring says."""

    def __init__(self, before: PGraph, by: Formula, after: PGraph, sig: Signature, relation: str):
        self.s = s = _table(by, sig)
        f = [_table(label, sig) for label in before.labels.values()]
        self.g = g = [_table(label, sig) for label in after.labels.values()]
        test = _RELATIONS[relation]
        self.graphs = (before, after)
        self.rel = ([0] * len(f), [0] * len(g))
        for b, fb in enumerate(f):
            for a, ga in enumerate(g):
                if test(s, fb, ga):
                    self.rel[0][b] |= 1 << a
                    self.rel[1][a] |= 1 << b
        self.preds = (before.predecessors, after.predecessors)
        self.is_by = sum(1 << a for a, ga in enumerate(g) if ga == s)

    def unmatched(self, clause: str, outer_after: bool, match_after: bool,
                  excuse: bool = False, anchored: bool = False) -> list[tuple[str, str, str]]:
        """Witnesses for the outer graph's nodes that have no counterpart,
        in node order.

        A counterpart is a related node of the other graph. Of the pair, the
        transformed node (``match_after``) or else the original one has each
        strict predecessor related to some strict predecessor of the other,
        unless ``excuse`` is set (with ``match_after``) and that predecessor
        is equivalent to the revision formula. Transformed outer nodes equivalent to the revision
        formula are skipped; ``anchored`` further requires transformed outer
        nodes to entail it or to have a strict predecessor equivalent to it.
        """
        rel, preds, is_by = self.rel, self.preds, self.is_by
        # covered[o]: the nodes of the matched side related to some strict
        # predecessor of node o of the other side, or excused
        spare = is_by if excuse else 0
        other = not match_after
        covered = [spare | _union(rel[other], up) for up in preds[other]]
        matched = preds[match_after]
        outer = self.graphs[outer_after]
        bad = []
        for n, (node, partners) in enumerate(zip(outer.node_ids, rel[outer_after])):
            if outer_after and is_by >> n & 1:
                continue
            if outer_after == match_after:
                ok = any(partners >> m & 1 and not matched[n] & ~cover for m, cover in enumerate(covered))
            else:
                ok = any(partners >> m & 1 and not up & ~covered[n] for m, up in enumerate(matched))
            if ok and anchored and self.g[n] & ~self.s:
                ok = bool(preds[1][n] & is_by)
            if not ok:
                bad.append((clause, node, str(outer.label(node))))
        return bad


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
    for (n_xi, xi), preds in zip(labels.items(), after.predecessors):
        if equivalent(xi, TOP, sig) or equivalent(xi, BOT, sig) or entails(xi, by, sig):
            continue
        if any(
            not equivalent(psi, BOT, sig) and entails(psi, by, sig)
            for i, psi in enumerate(labels.values()) if preds >> i & 1
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
