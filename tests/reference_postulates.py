"""Loop implementations of the postulate checkers and syntactic conditions.

These are the world-pair loops and nested label quantifiers that
``beliefrev.postulates`` replaced with a mask table and a shared
counterpart search. They are kept as the reference oracle of
``test_postulates_differential.py``, which requires identical reports,
witness order included. A condition builds each conjunction it tests once
per (left, right) object pair (:func:`_conjoiner`), which changes no verdict.
"""

from __future__ import annotations

from typing import Callable

from beliefrev import (
    Formula,
    PGraph,
    PostulateReport,
    PreferenceModel,
    Signature,
    entails,
    equivalent,
)
from beliefrev.errors import WorldSetMismatchError
from beliefrev.formula import BOT, TOP, And, Not
from beliefrev.postulates import ConditionReport
from beliefrev.semantics import min_worlds


def _shared_ids(before: PreferenceModel, after: PreferenceModel) -> list[str]:
    if set(before.ids) != set(after.ids):
        raise WorldSetMismatchError(
            "models do not share a world set: "
            f"{sorted(before.ids)} vs {sorted(after.ids)}"
        )
    for i in before.ids:
        if before.world(i).valuation != after.world(i).valuation:
            raise WorldSetMismatchError(f"world {i!r} changed valuation")
    return sorted(before.ids)


def _satisfied(model: PreferenceModel, formula: Formula) -> set[str]:
    return {w.id for w in model.satisfying(formula)}


# --- semantic checkers -------------------------------------------------------


def check_dp1(before: PreferenceModel, by: Formula, after: PreferenceModel) -> PostulateReport:
    """Inside the revision formula the order is untouched: for satisfying
    w, w' the revised order agrees with the original, both ways."""
    ids = _shared_ids(before, after)
    sat = _satisfied(before, by)
    bad = tuple(
        (a, b)
        for a in ids
        for b in ids
        if a in sat and b in sat and before.leq(a, b) != after.leq(a, b)
    )
    return PostulateReport("dp1", not bad, bad)


def check_dp2(before: PreferenceModel, by: Formula, after: PreferenceModel) -> PostulateReport:
    """Outside the revision formula the order is untouched."""
    ids = _shared_ids(before, after)
    sat = _satisfied(before, by)
    bad = tuple(
        (a, b)
        for a in ids
        for b in ids
        if a not in sat and b not in sat and before.leq(a, b) != after.leq(a, b)
    )
    return PostulateReport("dp2", not bad, bad)


def check_dp3(before: PreferenceModel, by: Formula, after: PreferenceModel) -> PostulateReport:
    """A satisfying world strictly preferred to a non-satisfying one stays
    strictly preferred."""
    ids = _shared_ids(before, after)
    sat = _satisfied(before, by)
    bad = tuple(
        (a, b)
        for a in ids
        for b in ids
        if a in sat
        and b not in sat
        and before.strictly_below(a, b)
        and not after.strictly_below(a, b)
    )
    return PostulateReport("dp3", not bad, bad)


def check_dp4(before: PreferenceModel, by: Formula, after: PreferenceModel) -> PostulateReport:
    """A satisfying world weakly preferred to a non-satisfying one stays
    weakly preferred."""
    ids = _shared_ids(before, after)
    sat = _satisfied(before, by)
    bad = tuple(
        (a, b)
        for a in ids
        for b in ids
        if a in sat and b not in sat and before.leq(a, b) and not after.leq(a, b)
    )
    return PostulateReport("dp4", not bad, bad)


def check_rec(before: PreferenceModel, by: Formula, after: PreferenceModel) -> PostulateReport:
    """Recalcitrance: after revising, every satisfying world is strictly
    preferred to every non-satisfying world."""
    ids = _shared_ids(before, after)
    sat = _satisfied(before, by)
    bad = tuple(
        (a, b)
        for a in ids
        for b in ids
        if a in sat and b not in sat and not after.strictly_below(a, b)
    )
    return PostulateReport("rec", not bad, bad)


def check_ind(before: PreferenceModel, by: Formula, after: PreferenceModel) -> PostulateReport:
    """Independence: weak preference of a satisfying world over a
    non-satisfying one becomes strict."""
    ids = _shared_ids(before, after)
    sat = _satisfied(before, by)
    bad = tuple(
        (a, b)
        for a in ids
        for b in ids
        if a in sat
        and b not in sat
        and before.leq(a, b)
        and not after.strictly_below(a, b)
    )
    return PostulateReport("ind", not bad, bad)


def check_faith(before: PreferenceModel, by: Formula, after: PreferenceModel) -> PostulateReport:
    """Faithfulness: when the formula is satisfiable in the model, its most
    preferred worlds before revision are exactly the globally most
    preferred worlds afterwards."""
    _shared_ids(before, after)
    if not _satisfied(before, by):
        return PostulateReport("faith", True)
    expected = {w.id for w in min_worlds(before, by)}
    actual = {w.id for w in min_worlds(after, TOP)}
    bad = tuple((i,) for i in sorted(expected ^ actual))
    return PostulateReport("faith", not bad, bad)


def check_cb(before: PreferenceModel, by: Formula, after: PreferenceModel) -> PostulateReport:
    """Conditional-belief conservation: among worlds outside the most
    preferred satisfying set, the order is untouched, both ways."""
    ids = _shared_ids(before, after)
    minimal = {w.id for w in min_worlds(before, by)}
    bad = tuple(
        (a, b)
        for a in ids
        for b in ids
        if a not in minimal
        and b not in minimal
        and before.leq(a, b) != after.leq(a, b)
    )
    return PostulateReport("cb", not bad, bad)


SEMANTIC_CHECKS = {
    "dp1": check_dp1,
    "dp2": check_dp2,
    "dp3": check_dp3,
    "dp4": check_dp4,
    "rec": check_rec,
    "ind": check_ind,
    "faith": check_faith,
    "cb": check_cb,
}


# --- syntactic sufficient conditions -----------------------------------------
#
# Below, "before" nodes/edges are those of the original graph and "after"
# nodes/edges those of the transformed graph; prec edges are compared after
# transitive closure. Helper naming follows the quantifier roles.


def _nodes(graph: PGraph) -> list[tuple[str, Formula]]:
    return [(n, graph.label(n)) for n in graph.node_ids]


def _conjoiner() -> Callable[[Formula, Formula], Formula]:
    """``And(left, right)``, built once per (left, right) object pair. The
    compile memo is keyed by formula object, so a conjunction built afresh
    for every comparison would be compiled afresh every time."""
    built: dict[tuple[int, int], Formula] = {}

    def conj(left: Formula, right: Formula) -> Formula:
        key = (id(left), id(right))
        if key not in built:
            built[key] = And(left, right)
        return built[key]

    return conj


def cond_dp1(before: PGraph, by: Formula, after: PGraph, sig: Signature) -> ConditionReport:
    """Sufficient condition for DP-1.

    Both directions of a label correspondence modulo conjunction with the
    revision formula: every original node has a counterpart in the
    transformed graph whose new strict predecessors are either equivalent
    to the revision formula or counterparts of old strict predecessors, and
    symmetrically for every transformed node not equivalent to the revision
    formula.
    """
    prec_before = before.prec()
    prec_after = after.prec()
    conj = _conjoiner()
    eq = lambda f, g: equivalent(conj(by, f), conj(by, g), sig)
    bad: list[tuple[str, str, str]] = []

    for n_xi, xi in _nodes(before):
        def direction_one(n_xi=n_xi, xi=xi) -> bool:
            for n_xi2, xi2 in _nodes(after):
                if not eq(xi, xi2):
                    continue
                ok = True
                for n_psi2, psi2 in _nodes(after):
                    if (n_psi2, n_xi2) not in prec_after:
                        continue
                    if equivalent(psi2, by, sig):
                        continue
                    if not any(
                        eq(psi, psi2) and (n_psi, n_xi) in prec_before
                        for n_psi, psi in _nodes(before)
                    ):
                        ok = False
                        break
                if ok:
                    return True
            return False

        if not direction_one():
            bad.append(("1", n_xi, str(xi)))

    for n_xi, xi in _nodes(after):
        if equivalent(xi, by, sig):
            continue

        def direction_two(n_xi=n_xi, xi=xi) -> bool:
            for n_xi2, xi2 in _nodes(before):
                if not eq(xi, xi2):
                    continue
                ok = True
                for n_psi2, psi2 in _nodes(before):
                    if (n_psi2, n_xi2) not in prec_before:
                        continue
                    if not any(
                        eq(psi, psi2) and (n_psi, n_xi) in prec_after
                        for n_psi, psi in _nodes(after)
                    ):
                        ok = False
                        break
                if ok:
                    return True
            return False

        if not direction_two():
            bad.append(("2", n_xi, str(xi)))

    return ConditionReport("dp1", not bad, tuple(bad))


def cond_dp2(before: PGraph, by: Formula, after: PGraph, sig: Signature) -> ConditionReport:
    """Sufficient condition for DP-2: the DP-1 correspondence with the
    negated revision formula, predecessors matched in the forward direction
    for original nodes and excused by the revision formula for transformed
    nodes."""
    neg = Not(by)
    prec_before = before.prec()
    prec_after = after.prec()
    conj = _conjoiner()
    eq = lambda f, g: equivalent(conj(neg, f), conj(neg, g), sig)
    bad: list[tuple[str, str, str]] = []

    for n_xi, xi in _nodes(before):
        def direction_one(n_xi=n_xi, xi=xi) -> bool:
            for n_xi2, xi2 in _nodes(after):
                if not eq(xi, xi2):
                    continue
                ok = True
                for n_psi, psi in _nodes(before):
                    if (n_psi, n_xi) not in prec_before:
                        continue
                    if not any(
                        eq(psi, psi2) and (n_psi2, n_xi2) in prec_after
                        for n_psi2, psi2 in _nodes(after)
                    ):
                        ok = False
                        break
                if ok:
                    return True
            return False

        if not direction_one():
            bad.append(("1", n_xi, str(xi)))

    for n_xi, xi in _nodes(after):
        if equivalent(xi, by, sig):
            continue

        def direction_two(n_xi=n_xi, xi=xi) -> bool:
            for n_xi2, xi2 in _nodes(before):
                if not eq(xi, xi2):
                    continue
                ok = True
                for n_psi, psi in _nodes(after):
                    if (n_psi, n_xi) not in prec_after:
                        continue
                    if equivalent(psi, by, sig):
                        continue
                    if not any(
                        eq(psi, psi2) and (n_psi2, n_xi2) in prec_before
                        for n_psi2, psi2 in _nodes(before)
                    ):
                        ok = False
                        break
                if ok:
                    return True
            return False

        if not direction_two():
            bad.append(("2", n_xi, str(xi)))

    return ConditionReport("dp2", not bad, tuple(bad))


def cond_dp3(before: PGraph, by: Formula, after: PGraph, sig: Signature) -> ConditionReport:
    """Sufficient condition for DP-3: every original node has a transformed
    counterpart agreeing with it inside the revision formula (one-way
    entailments) whose new strict predecessors are the revision formula or
    counterparts of old strict predecessors."""
    neg = Not(by)
    prec_before = before.prec()
    prec_after = after.prec()
    conj = _conjoiner()
    bad: list[tuple[str, str, str]] = []

    for n_xi, xi in _nodes(before):
        def holds_for(n_xi=n_xi, xi=xi) -> bool:
            for n_xi2, xi2 in _nodes(after):
                if not entails(conj(by, xi), xi2, sig):
                    continue
                if not entails(conj(neg, xi2), xi, sig):
                    continue
                ok = True
                for n_psi2, psi2 in _nodes(after):
                    if (n_psi2, n_xi2) not in prec_after:
                        continue
                    if equivalent(psi2, by, sig):
                        continue
                    if not any(
                        entails(conj(by, psi), psi2, sig)
                        and entails(conj(neg, psi2), psi, sig)
                        and (n_psi, n_xi) in prec_before
                        for n_psi, psi in _nodes(before)
                    ):
                        ok = False
                        break
                if ok:
                    return True
            return False

        if not holds_for():
            bad.append(("1", n_xi, str(xi)))

    return ConditionReport("dp3", not bad, tuple(bad))


def cond_dp4(before: PGraph, by: Formula, after: PGraph, sig: Signature) -> ConditionReport:
    """Sufficient condition for DP-4: every transformed node is equivalent
    to the revision formula or corresponds to an original node, with old
    strict predecessors matched by new strict predecessors of the
    transformed node."""
    neg = Not(by)
    prec_before = before.prec()
    prec_after = after.prec()
    conj = _conjoiner()
    bad: list[tuple[str, str, str]] = []

    for n_xi, xi in _nodes(after):
        if equivalent(xi, by, sig):
            continue

        def holds_for(n_xi=n_xi, xi=xi) -> bool:
            for n_xi2, xi2 in _nodes(before):
                if not entails(conj(by, xi2), xi, sig):
                    continue
                if not entails(conj(neg, xi), xi2, sig):
                    continue
                ok = True
                for n_psi2, psi2 in _nodes(before):
                    if (n_psi2, n_xi2) not in prec_before:
                        continue
                    if not any(
                        entails(conj(by, psi2), psi, sig)
                        and entails(conj(neg, psi), psi2, sig)
                        and (n_psi, n_xi) in prec_after
                        for n_psi, psi in _nodes(after)
                    ):
                        ok = False
                        break
                if ok:
                    return True
            return False

        if not holds_for():
            bad.append(("1", n_xi, str(xi)))

    return ConditionReport("dp4", not bad, tuple(bad))


def cond_rec(before: PGraph, by: Formula, after: PGraph, sig: Signature) -> ConditionReport:
    """Sufficient condition for recalcitrance: every transformed node is
    trivial, entails the revision formula, or is outranked by a consistent
    node entailing it; and some original node entails the revision formula.

    Holding on a single triple does not guarantee the semantic postulate on
    that triple; the guarantee is for transformations satisfying the
    condition on all inputs.
    """
    prec_after = after.prec()
    bad: list[tuple[str, str, str]] = []

    for n_xi, xi in _nodes(after):
        if equivalent(xi, TOP, sig) or equivalent(xi, BOT, sig):
            continue
        if entails(xi, by, sig):
            continue
        if any(
            (n_psi, n_xi) in prec_after
            and not equivalent(psi, BOT, sig)
            and entails(psi, by, sig)
            for n_psi, psi in _nodes(after)
        ):
            continue
        bad.append(("1", n_xi, str(xi)))

    if not any(entails(xi, by, sig) for _, xi in _nodes(before)):
        bad.append(("2", "-", str(by)))

    return ConditionReport("rec", not bad, tuple(bad))


def cond_ind(before: PGraph, by: Formula, after: PGraph, sig: Signature) -> ConditionReport:
    """Sufficient condition for independence: the DP-4 style correspondence
    plus, for transformed nodes not entailing the revision formula, a
    strict predecessor equivalent to it."""
    neg = Not(by)
    prec_before = before.prec()
    prec_after = after.prec()
    conj = _conjoiner()
    bad: list[tuple[str, str, str]] = []

    for n_xi2, xi2 in _nodes(after):
        if equivalent(xi2, by, sig):
            continue

        def holds_for(n_xi2=n_xi2, xi2=xi2) -> bool:
            for n_xi, xi in _nodes(before):
                if not entails(conj(by, xi), xi2, sig):
                    continue
                if not entails(conj(neg, xi2), xi, sig):
                    continue
                ok = True
                for n_psi2, psi2 in _nodes(after):
                    if (n_psi2, n_xi2) not in prec_after:
                        continue
                    if not any(
                        entails(conj(by, psi), psi2, sig)
                        and entails(conj(neg, psi2), psi, sig)
                        and (n_psi, n_xi) in prec_before
                        for n_psi, psi in _nodes(before)
                    ):
                        ok = False
                        break
                if not ok:
                    continue
                if not entails(xi2, by, sig) and not any(
                    (n_psi2, n_xi2) in prec_after and equivalent(psi2, by, sig)
                    for n_psi2, psi2 in _nodes(after)
                ):
                    continue
                return True
            return False

        if not holds_for():
            bad.append(("1", n_xi2, str(xi2)))

    return ConditionReport("ind", not bad, tuple(bad))


CONDITION_CHECKS = {
    "dp1": cond_dp1,
    "dp2": cond_dp2,
    "dp3": cond_dp3,
    "dp4": cond_dp4,
    "rec": cond_rec,
    "ind": cond_ind,
}
