"""Record the syntactic condition verdicts of the criterion-5 sweep.

``golden_c5.json`` holds, for every (graph, formula, transformation)
instance in :func:`workloads.sweep_instances` order, one bit per condition
(dp1, dp2, dp3, dp4, rec, ind): whether ``cond_*`` accepts the instance.
The semantic side of every instance is checked against the exact oracle
instead, so only these verdicts are recorded. Regenerate only when the
conditions are meant to change:

    python3 bench/golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads  # noqa: E402


def main() -> None:
    sig = workloads.Signature(workloads.SIG_PQ_ATOMS)
    pool = workloads.pool_pq()
    graphs = workloads.sweep_pgraphs(pool)
    bits = []
    for g, f, t in workloads.sweep_instances():
        transform = workloads.T.prefix if t == "prefix" else workloads.T.null_transform
        after = transform(graphs[g], pool[f])
        bits.append("".join(
            "1" if getattr(workloads.P, name)(graphs[g], pool[f], after, sig).holds else "0"
            for name in workloads.COND_FUNCTIONS
        ))
    out = {"conditions": list(workloads.CONDITIONS), "cond": bits}
    (BENCH_DIR / "golden_c5.json").write_text(json.dumps(out, indent=0) + "\n")


if __name__ == "__main__":
    main()
