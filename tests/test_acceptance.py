"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they happen; without ``-s`` pytest shows them for failing criteria.

Two criteria are implemented exactly as specified and fail by design,
because the claims they encode are provably too strong; the pinned
counterexamples live in tests/test_postulates.py and the failure output
below:

* criterion 4 requires natural revision to satisfy the first
  Darwiche-Pearl postulate on every enumerated preorder, but on partial
  preorders natural revision ties previously incomparable minimal worlds,
  breaking the biconditional (witness: the discrete order, revising by p).
* criterion 5 requires the syntactic sufficient conditions to imply the
  semantic postulates instance by instance for both prefixing and the
  identity transformation, but the recalcitrance and independence
  conditions are sufficient only at the all-inputs level; the identity
  transformation yields accept-but-fail instances (witness: a single node
  p & q, revising by p).
"""

import random
import time

import numpy as np

from beliefrev import (
    PreferenceModel,
    canonical_model,
    check_cb,
    check_rec,
    demo_fact_cb,
    demo_fact_min,
    graph_from_preorder,
    lex_revise,
    natural_revise,
    prefix,
    sweep_harmony,
)
from beliefrev.pgraph import enumerate_pgraphs, induce_model, induced_order
from beliefrev.postulates import (
    check_dp1,
    check_dp2,
    check_dp3,
    check_dp4,
    check_faith,
    check_ind,
    cond_dp1,
    cond_dp2,
    cond_dp3,
    cond_dp4,
    cond_ind,
    cond_rec,
)
from beliefrev.semantics import min_worlds, worlds_for_signature
from beliefrev.transforms import NULL, apply_induced, null_transform
from helpers import (
    SIG_PQ,
    SIG_PQR,
    chain_fixture,
    f,
    graph,
    pool,
    preorder_models_on_trio,
    random_pgraph,
)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance] criterion {criterion}: {verdict}{suffix}")


def fixture_models() -> list[PreferenceModel]:
    return preorder_models_on_trio() + [chain_fixture()]


def test_criterion_1_prefix_lexicographic_harmony():
    started = time.perf_counter()
    swept = sweep_harmony(2, SIG_PQ, pool())
    elapsed = time.perf_counter() - started
    ok = swept.verdict and swept.data["instances"] == 255 and elapsed < 10.0
    report(
        "1 harmony",
        ok,
        f"{swept.data['instances']} instances, "
        f"{len(swept.data['mismatches'])} mismatches, {elapsed:.2f}s",
    )
    assert swept.data["instances"] == 255
    assert swept.data["mismatches"] == []
    assert elapsed < 10.0


def test_criterion_2_background_equivalence_example():
    from beliefrev import graphs_equivalent

    simple = graph({"a": "p", "b": "q"}, [("a", "b")])
    chain4 = graph(
        {"m1": "p & q", "m2": "p & ~q", "m3": "~p & q", "m4": "~p & ~q"},
        [("m1", "m2"), ("m2", "m3"), ("m3", "m4")],
    )
    reordered = graph(
        {"m1": "p & q", "m3": "~p & q", "m2": "p & ~q", "m4": "~p & ~q"},
        [("m1", "m3"), ("m3", "m2"), ("m2", "m4")],
    )
    same = graphs_equivalent(simple, chain4, SIG_PQ)
    differs_1 = not graphs_equivalent(reordered, chain4, SIG_PQ)
    differs_2 = not graphs_equivalent(reordered, simple, SIG_PQ)
    ok = same and differs_1 and differs_2
    report("2 equivalence example", ok)
    assert same and differs_1 and differs_2


def test_criterion_3_representation_round_trip():
    models = preorder_models_on_trio()
    failures = [
        i
        for i, m in enumerate(models)
        if induce_model(graph_from_preorder(m), m.worlds) != m
    ]
    ok = not failures and len(models) == 29
    report("3 round trip", ok, f"{len(models)} preorders")
    assert len(models) == 29
    assert failures == []


def test_criterion_4_postulate_suites():
    lex_suite = {
        "dp1": check_dp1,
        "dp2": check_dp2,
        "dp3": check_dp3,
        "dp4": check_dp4,
        "rec": check_rec,
        "ind": check_ind,
        "faith": check_faith,
    }
    natural_suite = {
        "dp1": check_dp1,
        "dp2": check_dp2,
        "dp3": check_dp3,
        "dp4": check_dp4,
        "faith": check_faith,
        "cb": check_cb,
    }
    lex_violations: list[tuple[int, str, str]] = []
    natural_violations: list[tuple[int, str, str]] = []
    lex_cb_witness = None
    natural_rec_witness = None

    for index, model in enumerate(fixture_models()):
        for formula in pool():
            revised_lex = lex_revise(model, formula).model
            for name, check in lex_suite.items():
                if not check(model, formula, revised_lex).holds:
                    lex_violations.append((index, name, str(formula)))
            cb_report = check_cb(model, formula, revised_lex)
            if not cb_report.holds and lex_cb_witness is None:
                lex_cb_witness = (index, str(formula), cb_report.witnesses[0])

            revised_nat = natural_revise(model, formula).model
            for name, check in natural_suite.items():
                if not check(model, formula, revised_nat).holds:
                    natural_violations.append((index, name, str(formula)))
            rec_report = check_rec(model, formula, revised_nat)
            if not rec_report.holds and natural_rec_witness is None:
                natural_rec_witness = (index, str(formula), rec_report.witnesses[0])

    ok = not lex_violations and not natural_violations
    natural_kinds = sorted({name for _, name, _ in natural_violations})
    report(
        "4 postulate suites",
        ok and lex_cb_witness is not None and natural_rec_witness is not None,
        f"lex violations: {len(lex_violations)}; natural violations: "
        f"{len(natural_violations)} (kinds: {natural_kinds or 'none'}); "
        f"lex-cb witness: {lex_cb_witness is not None}; "
        f"natural-rec witness: {natural_rec_witness is not None}",
    )

    # the recorded counter-witnesses re-verify against the definitions
    assert lex_cb_witness is not None
    index, formula_text, (wa, wb) = lex_cb_witness
    model = fixture_models()[index]
    revised = lex_revise(model, f(formula_text)).model
    minimal = {w.id for w in min_worlds(model, f(formula_text))}
    assert wa not in minimal and wb not in minimal
    assert model.leq(wa, wb) != revised.leq(wa, wb)

    assert natural_rec_witness is not None
    index, formula_text, (wa, wb) = natural_rec_witness
    model = fixture_models()[index]
    revised = natural_revise(model, f(formula_text)).model
    assert not revised.strictly_below(wa, wb)

    assert lex_violations == []
    assert natural_violations == []


def test_criterion_5_condition_soundness_cross_check():
    pairing = {
        "dp1": (cond_dp1, check_dp1),
        "dp2": (cond_dp2, check_dp2),
        "dp3": (cond_dp3, check_dp3),
        "dp4": (cond_dp4, check_dp4),
        "rec": (cond_rec, check_rec),
        "ind": (cond_ind, check_ind),
    }
    transformations = {"prefix": prefix, "null": null_transform}
    violations: list[tuple[str, str, str, str]] = []
    accepted = 0
    for g in enumerate_pgraphs(pool(), 2):
        base = canonical_model(g, SIG_PQ)
        for formula in pool():
            for t_name, transform in transformations.items():
                transformed = transform(g, formula)
                revised = canonical_model(transformed, SIG_PQ)
                for name, (cond, check) in pairing.items():
                    if cond(g, formula, transformed, SIG_PQ).holds:
                        accepted += 1
                        if not check(base, formula, revised).holds:
                            violations.append((t_name, name, repr(g), str(formula)))
    gap_kinds = sorted({(t, n) for t, n, _, _ in violations})
    report(
        "5 condition soundness",
        not violations,
        f"{accepted} accepted instances, {len(violations)} implication "
        f"violations (gaps: {gap_kinds or 'none'})",
    )
    assert violations == []


def test_criterion_6_conflicting_revisions_demo():
    demo = demo_fact_cb()
    orders_ok = (
        demo.data["three_world_revised"] == "w2 < w1 < w3"
        and demo.data["two_world_revised"] == "w3 < w1"
    )
    conflict_ok = demo.data["conflict_valuations"] == ["~p & q", "p & q"]
    ok = demo.verdict and orders_ok and conflict_ok
    report("6 conflicting revisions demo", ok)
    assert demo.verdict
    assert orders_ok and conflict_ok


def test_criterion_7_formula_definability_demo():
    g = graph({"a": "p", "b": "q"}, [("a", "b")])
    demo = demo_fact_min(g, f("~p"), SIG_PQ)
    differs = demo.data.get("min_valuations_a") != demo.data.get("min_valuations_b")
    ok = demo.verdict and demo.data["status"] == "witness-found" and differs
    report(
        "7 formula definability demo",
        ok,
        f"min-set valuations {demo.data.get('min_valuations_a')} vs "
        f"{demo.data.get('min_valuations_b')}",
    )
    assert demo.verdict
    assert differs


def test_criterion_8_null_laws():
    checked = 0
    for model in fixture_models():
        for formula in pool():
            outcome = apply_induced(NULL, model, formula)
            assert outcome.model == model
            checked += 1
    report("8 null laws", True, f"{checked} instances, relation equality")


def test_criterion_9_structural_invariants_on_random_graphs():
    rng = random.Random(20240817)
    worlds = worlds_for_signature(SIG_PQR)
    started = time.perf_counter()
    for _ in range(1000):
        g = random_pgraph(rng, SIG_PQR, max_nodes=4)
        matrix = induced_order(g, worlds)
        assert matrix.diagonal().all()
        implied = (matrix.astype(np.uint8) @ matrix.astype(np.uint8)) > 0
        assert not (implied & ~matrix).any()
        PreferenceModel(worlds, matrix)  # also re-checks the strict part
    elapsed = time.perf_counter() - started
    ok = elapsed < 30.0
    report("9 structural invariants", ok, f"1000 graphs, {elapsed:.2f}s")
    assert elapsed < 30.0
