"""beliefrev benchmark: one closed-loop client in one process.

    python3 bench/run.py --workload cli-large --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src/``. Inputs come from ``--seed`` only. Every operation's
output is checked exactly (see ``oracle.py``). With ``--trace 0`` the run
is timed untraced and the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it runs half as many operations untraced, replays those
operations traced, and reports the per-layer metrics instead. A run is a
fixed number of whole cycles of operations: as many as ``--seconds`` takes
at the workload's nominal rate, so a seed always runs, and fails, the same
operations. Metric names and units come from ``BENCHMARK.json``;
``bench/README.md`` describes the workloads.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
TAIL_BEYOND = 10
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import beliefrev.cli; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Time to import the package (numpy included) in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(done.stdout.strip())


def run_op(op, index: int, tracer=None) -> tuple[float, str | None]:
    """Time one operation and check its output against the expected one.
    Returns the latency and, for a failed operation, what went wrong."""
    span = tracer.begin_op(index, op.kind) if tracer else None
    started = time.perf_counter()
    try:
        output = op.run()
    except Exception as exc:  # a raising operation is a failed one, not a crash of the benchmark
        output, error = None, f"{type(exc).__name__}: {exc}"
    else:
        error = None
    elapsed = time.perf_counter() - started
    if tracer:
        tracer.close(span)
    if error is None and output != op.expected:
        error = "output differs from the expected one"
        if isinstance(output, tuple) and output and isinstance(output[0], int):
            error += f" (exit code {output[0]}, expected {op.expected[0]})"
    return elapsed, error


class Tally:
    """Per operation: latency, kind and input properties; failures in full."""

    def __init__(self):
        self.latencies = array("d")
        self.kinds: list[str] = []
        self.props: dict[str, dict[str, list]] = {}
        self.failures: list[dict] = []

    def add(self, op, elapsed: float, error: str | None) -> None:
        self.latencies.append(elapsed)
        self.kinds.append(op.kind)
        per_kind = self.props.setdefault(op.kind, {})
        for key, value in op.props.items():
            per_kind.setdefault(key, []).append(value)
        if error is not None:
            self.failures.append({"kind": op.kind, "known_defect": op.known_defect, "error": error})

    def unexpected(self) -> list[dict]:
        """Failures outside the known-defect range."""
        return [f for f in self.failures if not f["known_defect"]]

    def summary(self) -> dict:
        """Input properties grouped by operation kind: min / median / max
        for numbers with many values, counts for everything else."""
        out = {}
        for kind, props in sorted(self.props.items()):
            entry: dict = {"ops": self.kinds.count(kind)}
            for key, values in sorted(props.items()):
                numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values)
                if numeric and len(set(values)) > 8:
                    entry[key] = {"min": min(values), "median": statistics.median(values), "max": max(values)}
                else:
                    entry[key] = dict(sorted(collections.Counter(str(v) for v in values).items()))
            out[kind] = entry
        return out

    def latency_by_kind(self) -> dict:
        by_kind: dict[str, list[float]] = {}
        for kind, latency in zip(self.kinds, self.latencies):
            by_kind.setdefault(kind, []).append(1000 * latency)
        return {k: {"ops": len(v), "median_ms": statistics.median(v), "max_ms": max(v)}
                for k, v in sorted(by_kind.items())}


def planned_ops(workload, seconds: float) -> int:
    """Whole cycles of operations, as many as take ``seconds`` at the
    workload's nominal rate. The count depends on nothing else, so
    ``attempted`` and ``failed`` are the same in every run of a seed."""
    cycles = max(1, round(seconds * workload.nominal_ops_per_s / workload.cycle))
    return cycles * workload.cycle


def measure(workload, tally: Tally, count: int, tracer=None) -> None:
    """Run operations 0, 1, ..., count - 1."""
    for index in range(count):
        op = workload.op(index)
        tally.add(op, *run_op(op, index, tracer))


def tail(latencies) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it, and its
    value: the (TAIL_BEYOND + 1)-th largest sample."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def metadata() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "beliefrev").glob("*.py"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "src_lines": lines,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "beliefrev" / "__init__.py").is_file():
        print(f"error: no beliefrev package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ.setdefault(var, str(nproc))
    sys.path.insert(0, str(SRC))
    import beliefrev

    if Path(beliefrev.__file__).resolve().parent != (SRC / "beliefrev").resolve():
        print(f"error: imported beliefrev from {beliefrev.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (known: {', '.join(workloads.WORKLOADS)})",
              file=sys.stderr)
        return 2
    factory = workloads.WORKLOADS[args.workload]
    workdir = OUT_DIR / f"work-{os.getpid()}"

    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    preparations = []
    workload = None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        started = time.perf_counter()
        workload = factory(args.seed, workdir)
        warm = Tally()
        for op in workload.warmup():
            warm.add(op, *run_op(op, -1))
        preparations.append(time.perf_counter() - started)
    setup_s = statistics.median(imports) + statistics.median(preparations)

    tally = Tally()
    try:
        if args.trace:
            count = planned_ops(workload, args.seconds / 2)
            measure(workload, tally, count)
            untraced = sum(tally.latencies)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                measure(workload, tally, count=count, tracer=tracer)
            finally:
                tracer.uninstall()
            values = tracer.layer_metrics()
            values["trace.overhead_ratio"] = (sum(tally.latencies) - untraced) / untraced
            trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.npz"
            tracer.save(trace_path)
            trace_path.with_suffix(".json").write_text(json.dumps(values, indent=1, sort_keys=True) + "\n")
            declared = spec["per_layer"]
        else:
            measure(workload, tally, planned_ops(workload, args.seconds))
            declared = spec["end_to_end"]
    finally:
        workload.close()

    attempted = len(tally.latencies)
    failed = tally.failures
    unexpected = tally.unexpected() + warm.unexpected()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("meta " + json.dumps(metadata(), sort_keys=True))
    print("properties " + json.dumps(tally.summary(), sort_keys=True))
    print("latency_by_kind " + json.dumps(tally.latency_by_kind()))
    if not args.trace:
        percentile, tail_value = tail(tally.latencies)
        values = {
            "throughput_ops_s": attempted / sum(tally.latencies),
            "latency_p50_ms": 1000 * statistics.median(tally.latencies),
            "latency_tail_ms": 1000 * tail_value,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        print(f"setup import_s {statistics.median(imports):.4f} prepare_s {statistics.median(preparations):.4f}"
              f" (median of {SETUP_REPEATS})")
        print(f"latency_tail_ms is p{percentile:.2f} of {attempted} samples, {TAIL_BEYOND} beyond it")
    known = sum(f["known_defect"] for f in failed)
    print(f"metric error_rate {len(failed) / attempted} ratio ({len(failed)} of {attempted} ops failed, "
          f"{known} in the known-defect range; the JSON result carries it as failed / attempted)")
    for f in (unexpected + [f for f in failed if f["known_defect"]])[:5]:
        print(f"failure {f['kind']}{' (known-defect range)' if f['known_defect'] else ''}: {f['error']}")
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"metric {m['name']} {values[m['name']]} {m['unit']}")
    print(json.dumps({"correct": not unexpected, "attempted": attempted, "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
