import pytest

from beliefrev import (
    SEMANTIC_CHECKS,
    PGraph,
    canonical_model,
    check_cb,
    check_rec,
    lex_revise,
    natural_revise,
    prefix,
)
from beliefrev.errors import UnknownAtomError, WorldSetMismatchError
from beliefrev.formula import BOT, TOP, Atom
from beliefrev.pgraph import enumerate_pgraphs
from beliefrev.postulates import (
    CONDITION_CHECKS,
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
from beliefrev.semantics import null_change
from beliefrev.transforms import null_transform
from helpers import (
    SIG_PQ,
    all_equal_fixture,
    canonical_pq,
    chain_fixture,
    chain_model,
    f,
    graph,
    pool,
)


def lex_result(m, text):
    return lex_revise(m, f(text)).model


def natural_result(m, text):
    return natural_revise(m, f(text)).model


def reversed_chain():
    return chain_model(canonical_pq(), ["w_0", "w_q", "w_p", "w_pq"])


# --- witness re-verification ---------------------------------------------------


def reverify(report, before, by, after):
    """Check each witness against the raw postulate definition."""
    sat = {w.id for w in before.satisfying(by)}
    for witness in report.witnesses:
        if report.postulate == "dp1":
            a, b = witness
            assert a in sat and b in sat
            assert before.leq(a, b) != after.leq(a, b)
        elif report.postulate == "dp2":
            a, b = witness
            assert a not in sat and b not in sat
            assert before.leq(a, b) != after.leq(a, b)
        elif report.postulate == "dp3":
            a, b = witness
            assert a in sat and b not in sat
            assert before.strictly_below(a, b) and not after.strictly_below(a, b)
        elif report.postulate == "dp4":
            a, b = witness
            assert a in sat and b not in sat
            assert before.leq(a, b) and not after.leq(a, b)
        elif report.postulate == "rec":
            a, b = witness
            assert a in sat and b not in sat
            assert not after.strictly_below(a, b)
        elif report.postulate == "ind":
            a, b = witness
            assert a in sat and b not in sat
            assert before.leq(a, b) and not after.strictly_below(a, b)
        elif report.postulate == "cb":
            from beliefrev.semantics import min_worlds

            minimal = {w.id for w in min_worlds(before, by)}
            a, b = witness
            assert a not in minimal and b not in minimal
            assert before.leq(a, b) != after.leq(a, b)


# --- semantic checkers ----------------------------------------------------------


def test_world_set_mismatch_is_rejected():
    m = chain_fixture()
    short = m.restricted_to(("w_pq", "w_p"))
    with pytest.raises(WorldSetMismatchError):
        check_dp1(m, f("p"), short)


def test_dp1_examples():
    m = chain_fixture()
    assert check_dp1(m, f("~p"), lex_result(m, "~p")).holds

    report = check_dp1(m, TOP, reversed_chain())
    assert not report.holds
    assert ("w_pq", "w_p") in report.witnesses
    reverify(report, m, TOP, reversed_chain())

    assert check_dp1(m, f("p"), m).holds


def test_dp2_dp3_dp4_examples():
    m = chain_fixture()
    lex = lex_result(m, "~p")
    assert check_dp2(m, f("~p"), lex).holds
    assert check_dp3(m, f("~p"), lex).holds
    assert check_dp4(m, f("~p"), lex).holds

    nat = natural_result(m, "~p")
    assert nat.describe_order() == "w_q < w_pq < w_p < w_0"
    assert check_dp3(m, f("~p"), nat).holds

    assert check_dp4(m, BOT, m).holds


def test_rec_examples():
    m = chain_fixture()
    assert check_rec(m, f("~p"), lex_result(m, "~p")).holds

    report = check_rec(m, f("~p"), natural_result(m, "~p"))
    assert not report.holds
    assert ("w_0", "w_pq") in report.witnesses
    reverify(report, m, f("~p"), natural_result(m, "~p"))

    assert check_rec(m, TOP, m).holds


def test_ind_examples():
    m = chain_fixture()
    assert check_ind(m, f("~p"), lex_result(m, "~p")).holds
    assert check_ind(m, BOT, m).holds

    # on the chain no world outside [[~p]] is weakly above one inside, so
    # the identity revision passes vacuously
    assert check_ind(m, f("~p"), null_change(m, f("~p")).model).holds

    # with everything tied the antecedent bites and the identity fails
    flat = all_equal_fixture()
    report = check_ind(flat, f("~p"), null_change(flat, f("~p")).model)
    assert not report.holds
    assert ("w_q", "w_pq") in report.witnesses
    reverify(report, flat, f("~p"), flat)


def test_faith_examples():
    m = chain_fixture()
    assert check_faith(m, f("~p"), natural_result(m, "~p")).holds
    assert check_faith(m, f("~p"), lex_result(m, "~p")).holds
    assert check_faith(m, BOT, m).holds

    report = check_faith(m, f("~p"), m)
    assert not report.holds
    assert report.witnesses  # the old minimum differs from the old global minimum


def test_cb_examples():
    m = chain_fixture()
    assert check_cb(m, f("p"), natural_result(m, "p")).holds

    report = check_cb(m, f("~p"), lex_result(m, "~p"))
    assert not report.holds
    assert ("w_pq", "w_0") in report.witnesses
    reverify(report, m, f("~p"), lex_result(m, "~p"))

    assert check_cb(m, f("p"), m).holds


def test_failing_reports_always_carry_witnesses():
    m = chain_fixture()
    for name, check in SEMANTIC_CHECKS.items():
        for text in ("p", "~p", "p & q"):
            report = check(m, f(text), reversed_chain())
            if not report.holds:
                assert report.witnesses, name
                assert list(report.witnesses) == sorted(report.witnesses)


# --- syntactic condition checkers --------------------------------------------------


def p_before_q():
    return graph({"a": "p", "b": "q"}, [("a", "b")])


def test_cond_dp1_examples():
    g = p_before_q()
    assert cond_dp1(g, f("~p"), prefix(g, f("~p")), SIG_PQ).holds
    assert cond_dp1(g, f("p"), g, SIG_PQ).holds

    swapped = graph({"a": "q", "b": "p"}, [("a", "b")])
    report = cond_dp1(g, f("p"), swapped, SIG_PQ)
    assert not report.holds
    assert any(w[0] == "2" and w[2] == "q" for w in report.witnesses)


def test_cond_dp2_examples():
    g = p_before_q()
    assert cond_dp2(g, f("~p"), prefix(g, f("~p")), SIG_PQ).holds
    assert cond_dp2(g, f("q"), g, SIG_PQ).holds


def test_cond_dp3_dp4_accept_identity_and_prefix():
    g = p_before_q()
    for by_text in ("p", "~p", "p & q"):
        by = f(by_text)
        assert cond_dp3(g, by, g, SIG_PQ).holds
        assert cond_dp4(g, by, g, SIG_PQ).holds
        assert cond_dp3(g, by, prefix(g, by), SIG_PQ).holds
        assert cond_dp4(g, by, prefix(g, by), SIG_PQ).holds


def test_cond_rec_examples():
    g = p_before_q()
    assert cond_rec(g, f("p"), prefix(g, f("p")), SIG_PQ).holds

    lonely_q = graph({"a": "q"})
    report = cond_rec(lonely_q, f("p"), null_transform(lonely_q, f("p")), SIG_PQ)
    assert not report.holds
    assert any(w[0] == "2" for w in report.witnesses)


def test_cond_ind_accepts_prefix_of_single_minimal_node():
    g = graph({"a": "p"})
    assert cond_ind(g, f("p"), prefix(g, f("p")), SIG_PQ).holds


# --- per-instance soundness landscape ----------------------------------------------
#
# The recalcitrance and independence conditions are sufficient for a
# transformation that satisfies them on every input; checked on a single
# triple they can accept while the semantic postulate fails on the induced
# models. The two pinned counterexamples below document this, and the sweep
# establishes that dp1..dp4 have no such gap for prefixing or the identity.


def test_cond_rec_accepts_a_triple_whose_models_violate_rec():
    g = graph({"n0": "p & q", "n1": "q"}, [("n0", "n1")])
    by = f("p")
    assert cond_rec(g, by, null_transform(g, by), SIG_PQ).holds
    m = canonical_model(g, SIG_PQ)
    report = check_rec(m, by, m)
    assert not report.holds
    assert ("w_p", "w_0") in report.witnesses  # tied worlds, not strict


def test_cond_ind_accepts_a_triple_whose_models_violate_ind():
    g = graph({"n0": "p & q"})
    by = f("p")
    assert cond_ind(g, by, null_transform(g, by), SIG_PQ).holds
    m = canonical_model(g, SIG_PQ)
    report = check_ind(m, by, m)
    assert not report.holds
    assert ("w_p", "w_q") in report.witnesses


def test_condition_soundness_landscape_on_the_two_node_sweep():
    # exhaustive: for prefixing the semantic postulates always pass, so
    # every condition acceptance is sound; for the identity the only
    # accept-but-fail gaps are recalcitrance and independence
    gaps = set()
    failing = 0
    transformations = {"prefix": prefix, "null": null_transform}
    pairing = {
        "dp1": (cond_dp1, check_dp1),
        "dp2": (cond_dp2, check_dp2),
        "dp3": (cond_dp3, check_dp3),
        "dp4": (cond_dp4, check_dp4),
        "rec": (cond_rec, check_rec),
        "ind": (cond_ind, check_ind),
    }
    for g in enumerate_pgraphs(pool(), 2):
        base = canonical_model(g, SIG_PQ)
        for by in pool():
            for t_name, t in transformations.items():
                transformed = t(g, by)
                revised = canonical_model(transformed, SIG_PQ)
                for name, (cond, check) in pairing.items():
                    report = check(base, by, revised)
                    reverify(report, base, by, revised)
                    failing += not report.holds
                    if cond(g, by, transformed, SIG_PQ).holds and not report.holds:
                        gaps.add((t_name, name))
    assert gaps == {("null", "rec"), ("null", "ind")}
    assert failing  # the witnesses re-verified above include failing ones


@pytest.mark.parametrize(
    "by, before_label, after_label, named",
    [
        ("p", "zz", None, "zz"),
        ("yy", "zz", "ww", "yy"),
        ("p", "zz", "ww", "zz"),
        ("p", "q", "ww", "ww"),
    ],
)
def test_every_condition_names_the_leftmost_unknown_atom(by, before_label, after_label, named):
    # by first, then the original labels, then the transformed ones; the
    # original graph here is one canonical_model rejects
    before = PGraph({"a": Atom("p"), "b": Atom(before_label)}, [("a", "b")])
    after = PGraph({} if after_label is None else {"c": Atom(after_label)})
    for name, cond in CONDITION_CHECKS.items():
        with pytest.raises(UnknownAtomError) as caught:
            cond(before, Atom(by), after, SIG_PQ)
        assert caught.value.atom == named, name
