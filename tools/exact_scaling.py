"""Exact-oracle scaling record: `run_sada` with the exact d-separation oracle
on the benchmark's seed-2026 oracle instances, each size in fresh processes.

    python3 tools/exact_scaling.py [--sizes 300 1000 2000] [--out BENCH_exact.json]

Size n is replicate 0 of grid point 0 of an oracle workload of size n, built
by `perfbench/workloads.build_instance` (d = 1.25, theta = 10, k = 1, no
conditioning cap). The sizes must be strictly increasing, or nothing runs.
Each size is solved in RUNS subprocesses of its own, one after another, so
each run's peak RSS is its own. The record gives, per size, each run's wall
time of the solve, the median, min and max of the wall times and of the
peak RSS, the number of `Dag._dsep_cache` entries, the edge-set digest and
whether the result equals the truth; then the exponent of the median wall
time between adjacent sizes, and the machine facts. Exits 1 when some size
is not exact, or when a size's runs disagree on anything but time and RSS.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SEED = 2026
# fresh processes per size, since one run's wall time is too noisy to
# compare sizes by
RUNS = 3


def measure(n: int) -> dict:
    """Solve the size-n instance in this process and describe the run."""
    # prepare() caps the BLAS threads, so it runs before numpy is imported
    sys.path.insert(0, str(PERFBENCH))
    import bootstrap

    bootstrap.prepare()
    from workloads import FULL, Workload, build_instance, check, digest, solve

    wl = Workload(f"oracle-n{n}", "oracle", n, None)
    inst = build_instance(wl, SEED, FULL, 0)
    start = time.perf_counter()
    edges = solve(inst, [])
    wall = time.perf_counter() - start
    error = check(wl, inst, edges)
    return {"n": n, "wall_s": wall,
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
            "dsep_cache_entries": len(inst.oracle.graph._dsep_cache),
            "edges": len(edges.pairs()), "digest": digest(edges),
            "exact": error is None, "error": error, "machine": bootstrap.machine_facts()}


def spread(values: list) -> dict:
    """The median, min and max of a size's runs."""
    return {"median": statistics.median(values), "min": min(values), "max": max(values)}


def run(sizes: list) -> dict:
    """RUNS fresh processes per size, then the exponents between neighbours'
    median wall times."""
    rows = []
    for n in sizes:
        runs = []
        for _ in range(RUNS):
            out = subprocess.run([sys.executable, __file__, "--one", str(n)],
                                 capture_output=True, text=True, check=True).stdout
            runs.append(json.loads(out.strip().splitlines()[-1]))
        walls = [r.pop("wall_s") for r in runs]
        rss = [r.pop("peak_rss_mb") for r in runs]
        if any(r != runs[0] for r in runs):
            raise SystemExit(f"n={n}: the runs disagree: {runs}")
        rows.append({"n": n, "wall_s_runs": walls, "wall_s": spread(walls),
                     "peak_rss_mb": spread(rss), **runs[0]})
        print(json.dumps(rows[-1]), flush=True)
    machine = [row.pop("machine") for row in rows][0]
    exponents = [{"from": a["n"], "to": b["n"],
                  "exponent": round(math.log(b["wall_s"]["median"] / a["wall_s"]["median"])
                                    / math.log(b["n"] / a["n"]), 2)}
                 for a, b in zip(rows, rows[1:])]
    return {"seed": SEED, "point": 0, "replicate": 0, "runs": RUNS, "machine": machine,
            "sizes": rows, "exponents": exponents}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--sizes", type=int, nargs="+", default=[300, 1000, 2000])
    p.add_argument("--out", type=Path, default=ROOT / "BENCH_exact.json")
    p.add_argument("--one", type=int, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.one is not None:
        print(json.dumps(measure(args.one)))
        return 0
    if any(b <= a for a, b in zip(args.sizes, args.sizes[1:])):
        p.error(f"--sizes must be strictly increasing, got {args.sizes}")
    record = run(args.sizes)
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    for e in record["exponents"]:
        print(f"exponent n={e['from']}..{e['to']}: {e['exponent']}")
    return 0 if all(r["exact"] for r in record["sizes"]) else 1


if __name__ == "__main__":
    sys.exit(main())
