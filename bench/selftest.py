"""Self-tests of the benchmark's own machinery.

    python3 bench/selftest.py          # or: python3 -m pytest bench/selftest.py

They cover what the timing runs take on trust: generators are
deterministic per seed, chain revisions fail alike under every seed, a
run is whole cycles of operations, self time adds up on a hand-built
span tree, the output checks reject a fast wrong answer, the recorded
condition verdicts reproduce the criterion-5 figures, and tracing catches
calls between modules and leaves the package as it found it.
"""

from __future__ import annotations

import collections
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
for path in (str(BENCH_DIR), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKDIR = ROOT / ".bench_out" / "selftest"


def fingerprint(workload, count: int) -> list[str]:
    return [repr((op.kind, op.props, op.expected, op.known_defect))
            for op in (workload.op(i) for i in range(count))]


def test_generators_are_deterministic_per_seed():
    try:
        for factory in workloads.WORKLOADS.values():
            count = 12 if factory is workloads.CliLarge else 40
            first = fingerprint(factory(7, WORKDIR), count)
            again = fingerprint(factory(7, WORKDIR), count)
            other = fingerprint(factory(8, WORKDIR), count)
            assert first == again, factory.name
            assert first != other, factory.name
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)


def test_chain_revisions_see_the_same_pattern_under_every_seed():
    # A lex or natural revision of a total order depends only on which
    # ranks satisfy the formula; that pattern comes from the layout.
    atoms = workloads.ATOMS8
    patterns, ids = [], []
    for seed in (1, 2):
        layout = workloads.layout_rng(7)
        by = workloads.random_formula(layout, atoms, 3, layout)
        model = workloads.patterned_chain(workloads.op_rng(seed, 7), layout, atoms, by, 270)
        _, ordered = model.in_file_order(atoms)
        patterns.append(oracle.truth(by, ordered.bits.T, atoms).tolist())
        ids.append(ordered.ids)
    assert patterns[0] == patterns[1]
    assert 0 < sum(patterns[0]) < 270
    assert ids[0] != ids[1]


def test_runs_are_whole_cycles_fixed_by_seconds():
    for factory in workloads.WORKLOADS.values():
        count = run.planned_ops(factory, 30)
        assert count > 0 and count % factory.cycle == 0, factory.name
        assert run.planned_ops(factory, 15) <= count


def test_self_time_adds_up_on_a_hand_built_tree():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    own = tracing.self_times([0, 1, 2, 3], start, end, parent)
    assert own.tolist() == [3.0, 2.0, 1.0, 4.0]
    assert own.sum() == end[0] - start[0]

    tracer = tracing.Tracer()
    ids = [tracer._name_id(n) for n in ("op.x", "formula.parse", "formula.entails", "formula.parse")]
    for name_id, s, e, p in zip(ids, start, end, parent):
        tracer.name.append(name_id)
        tracer.start.append(s)
        tracer.end.append(e)
        tracer.parent.append(p)
        tracer.op.append(0)
    layers = tracer.layer_metrics()
    assert layers["formula.parse.calls"] == 2
    assert layers["formula.parse.self_s"] == 2.0 + 4.0
    assert layers["formula.entails.self_s"] == 1.0
    assert layers["op.x.self_s"] == 3.0


def chain_model(n: int = 6):
    atoms = workloads.ATOMS8[:3]
    rank = np.arange(n)
    leq = rank[:, None] <= rank[None, :]
    bits = oracle.truth_columns(3, [i % 8 for i in range(n)]).T
    return atoms, [f"x{i}" for i in range(n)], bits, leq


def test_checker_rejects_a_relation_with_one_cell_flipped():
    atoms, ids, bits, leq = chain_model()
    expected = (0, oracle.render_model(atoms, ids, bits, leq))
    flipped = leq.copy()
    flipped[1, 0] = True  # x1 <= x0 as well: x0 and x1 become tied
    wrong = workloads.Op("revise-chain", lambda: (0, oracle.render_model(atoms, ids, bits, flipped)), expected)
    right = workloads.Op("revise-chain", lambda: expected, expected)
    assert run.run_op(wrong, 0)[1] is not None
    assert run.run_op(right, 0)[1] is None


def test_checker_accepts_the_library_and_rejects_a_wrong_exit_code():
    try:
        cli = workloads.CliLarge(3, WORKDIR)
        for op in cli.warmup():
            assert run.run_op(op, 0)[1] is None, op.kind
        op = cli.op(1, atoms=workloads.ATOMS8[:3], small=True)
        assert op.kind == "check"
        code, text = op.expected
        lying = workloads.Op(op.kind, lambda: (1 - code, text), op.expected)
        assert run.run_op(lying, 0)[1] is not None
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)


def test_golden_verdicts_reproduce_the_criterion_5_figures():
    sweep = workloads.SweepSmall(1, WORKDIR)
    accepted = 0
    gaps = collections.Counter()
    for (_, _, t), (cond, check) in zip(sweep.instances, sweep.expected):
        for name, accepts, holds in zip(workloads.CONDITIONS, cond, check):
            accepted += accepts
            if accepts and not holds:
                gaps[t, name] += 1
    assert len(sweep.instances) == 510
    assert accepted == 2451
    assert gaps == {("null", "rec"): 35, ("null", "ind"): 31}


def test_tracing_catches_calls_between_modules_and_restores_them():
    import beliefrev
    import beliefrev.pgraph as G
    import beliefrev.postulates as P

    originals = (G.canonical_model, G.induced_order, beliefrev.canonical_model, P.SEMANTIC_CHECKS["cb"])
    sweep = workloads.SweepSmall(1, WORKDIR)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        op = sweep.op(0)
        assert run.run_op(op, 0, tracer)[1] is None
        model = beliefrev.canonical_model(sweep.graphs[10], sweep.sig)
        P.SEMANTIC_CHECKS["cb"](model, sweep.pool[0], model)
    finally:
        tracer.uninstall()
    after = (G.canonical_model, G.induced_order, beliefrev.canonical_model, P.SEMANTIC_CHECKS["cb"])
    assert all(a is b for a, b in zip(originals, after))
    names = [tracer.names[i] for i in tracer.name]
    parents = [tracer.names[tracer.name[p]] if p >= 0 else None for p in tracer.parent]
    pairs = set(zip(names, parents))
    assert ("pgraph.induced_order", "pgraph.canonical_model") in pairs
    assert ("semantics.model_init", "pgraph.canonical_model") in pairs
    assert ("formula.equivalent", "postulates.cond") in pairs
    assert ("pgraph.canonical_model", None) in pairs
    assert ("postulates.check", None) in pairs
    assert tracer.counts["formula.valuations_swept"] > 0


def main() -> int:
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
