import itertools

import pytest

from beliefrev import PGraph, Signature, demo_fact_cb, demo_fact_min, sweep_harmony
from beliefrev.errors import ResourceBoundError
from beliefrev.formula import BOT, TOP
from beliefrev.pgraph import enumerate_pgraphs, induce_model
from beliefrev.semantics import min_worlds, worlds_for_signature
from helpers import SIG_PQ, f, graph, pool


# --- conflicting-revisions demo ---------------------------------------------------


def test_demo_fact_cb_passes_with_five_assertions():
    report = demo_fact_cb()
    assert report.verdict
    assert len(report.assertions) == 5
    assert all(a.holds for a in report.assertions)


def test_demo_fact_cb_pins_the_revised_orders_and_conflict():
    report = demo_fact_cb()
    assert report.data["three_world_revised"] == "w2 < w1 < w3"
    assert report.data["two_world_revised"] == "w3 < w1"
    assert report.data["restricted_three_world"] == "w1 < w3"
    assert report.data["conflict_valuations"] == ["~p & q", "p & q"]


def test_demo_fact_cb_renders_numbered_assertions():
    text = demo_fact_cb().render()
    assert "[1]" in text and "[5]" in text
    assert "verdict: true" in text


# --- formula-definability demo ------------------------------------------------------


def test_demo_fact_min_finds_a_witness_for_the_chain_graph():
    g = graph({"a": "p", "b": "q"}, [("a", "b")])
    report = demo_fact_min(g, f("~p"), SIG_PQ)
    assert report.verdict
    assert report.data["status"] == "witness-found"
    # re-verify the clash independently of the search order
    ids_a = report.data["worlds_a"]
    ids_b = report.data["worlds_b"]
    worlds = {w.id: w for w in worlds_for_signature(SIG_PQ)}
    model_a = induce_model(g, tuple(worlds[i] for i in ids_a))
    model_b = induce_model(g, tuple(worlds[i] for i in ids_b))
    min_a = {w.valuation.describe() for w in min_worlds(model_a, f("~p"))}
    min_b = {w.valuation.describe() for w in min_worlds(model_b, f("~p"))}
    assert min_a == set(report.data["min_valuations_a"])
    assert min_b == set(report.data["min_valuations_b"])
    clash = report.data["clash_valuation"]
    present_b = {w.valuation.describe() for w in model_b.worlds}
    assert clash in min_a and clash in present_b and clash not in min_b


def test_demo_fact_min_specific_submodels_disagree():
    # the full canonical model wants ~p & q selected; the single silent
    # world wants ~p & ~q selected and ~p & q is absent there
    g = graph({"a": "p", "b": "q"}, [("a", "b")])
    worlds = {w.id: w for w in worlds_for_signature(SIG_PQ)}
    full = induce_model(g, tuple(worlds.values()))
    lone = induce_model(g, (worlds["w_0"],))
    assert {w.valuation.describe() for w in min_worlds(full, f("~p"))} == {"~p & q"}
    assert {w.valuation.describe() for w in min_worlds(lone, f("~p"))} == {"~p & ~q"}


def test_demo_fact_min_reports_not_found_for_bottom():
    g = graph({"a": "p", "b": "q"}, [("a", "b")])
    report = demo_fact_min(g, BOT, SIG_PQ)
    assert not report.verdict
    assert report.data["status"] == "not-found"


def test_demo_fact_min_reports_not_found_for_empty_graph_and_top():
    # with everything tied, T itself selects the most preferred worlds in
    # every induced model, so no refutation exists
    report = demo_fact_min(PGraph({}), TOP, SIG_PQ)
    assert not report.verdict
    assert report.data["status"] == "not-found"


def reference_fact_min(g, by, sig):
    """The clash search on one induced model per world subset, pairs walked
    in ``itertools.combinations`` order, each pair both ways."""
    worlds = worlds_for_signature(sig)
    models = [
        induce_model(g, combo)
        for size in range(1, len(worlds) + 1)
        for combo in itertools.combinations(worlds, size)
    ]
    selected = [{w.valuation for w in min_worlds(m, by)} for m in models]
    for a, b in itertools.combinations(range(len(models)), 2):
        for first, second in ((a, b), (b, a)):
            present = {w.valuation for w in models[second].worlds}
            overlap = selected[first] & (present - selected[second])
            if overlap:
                return {
                    "status": "witness-found",
                    "worlds_a": [w.id for w in models[first].worlds],
                    "worlds_b": [w.id for w in models[second].worlds],
                    "min_valuations_a": sorted(v.describe() for v in selected[first]),
                    "min_valuations_b": sorted(v.describe() for v in selected[second]),
                    "clash_valuation": min(overlap, key=lambda v: v.bits).describe(),
                }
    return {"status": "not-found"}


def test_demo_fact_min_matches_the_per_subset_reference():
    bys = (f("~p"), f("p <-> q"), TOP)
    cases = [(g, by, SIG_PQ) for g in enumerate_pgraphs(pool(), 2) for by in bys]
    sig3 = Signature(("p", "q", "r"))
    cases += [
        (graph({"a": "p", "b": "q | r", "c": "~r"}, [("a", "b")], sig3), f("~p | r", sig3), sig3),
        (graph({"a": "p & q", "b": "r"}, [("b", "a")], sig3), f("q", sig3), sig3),
        (graph({"a": "p"}, (), sig3), f("T", sig3), sig3),
    ]
    for g, by, sig in cases:
        report = demo_fact_min(g, by, sig)
        assert report.data == reference_fact_min(g, by, sig), (g, by)
        assert report.verdict == (report.data["status"] == "witness-found")


def test_demo_fact_min_respects_its_atom_bound():
    with pytest.raises(ResourceBoundError):
        demo_fact_min(PGraph({}), TOP, Signature(("a", "b", "c", "d")))
    three = Signature(("a", "b", "c"))
    assert demo_fact_min(PGraph({}), TOP, three).data["status"] == "not-found"


# --- harmony sweep -------------------------------------------------------------------


def test_sweep_harmony_two_node_bound():
    report = sweep_harmony(2, SIG_PQ, pool())
    assert report.verdict
    assert report.data["instances"] == 255
    assert report.data["mismatches"] == []


def test_sweep_harmony_zero_bound():
    report = sweep_harmony(0, SIG_PQ, pool())
    assert report.verdict
    assert report.data["instances"] == 5


def test_sweep_harmony_single_nodes():
    report = sweep_harmony(1, SIG_PQ, pool())
    assert report.verdict
    assert report.data["instances"] == 30


def test_sweep_harmony_rejects_excessive_bounds():
    with pytest.raises(ResourceBoundError):
        sweep_harmony(4, SIG_PQ, pool())
    with pytest.raises(ResourceBoundError):
        sweep_harmony(-1, SIG_PQ, pool())
    big = Signature(("a", "b", "c", "d", "e"))
    with pytest.raises(ResourceBoundError):
        sweep_harmony(2, big, tuple())


def test_sweep_harmony_counts_are_deterministic():
    first = sweep_harmony(2, SIG_PQ, pool())
    second = sweep_harmony(2, SIG_PQ, pool())
    assert first.data == second.data
