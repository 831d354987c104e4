"""Run the benchmark over several seeds, serially, and summarise each metric
by its median, quartiles and spread (interquartile distance as a share of
the median):

    python3 perfbench/spread.py --workload oracle-n200 --seeds 1-10 \
        [--out perfbench/baseline/oracle-n200.json]

Each run is untraced and lasts BENCHMARK.json's `run_seconds`. With --out,
the per-seed results and the summary are written as JSON; the files under
perfbench/baseline/ were made this way on the seed code.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else None}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, required=True)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    runs = []
    for seed in args.seeds:
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600)
        if done.returncode:
            sys.stderr.write(done.stdout + done.stderr)
            return done.returncode
        result = json.loads(done.stdout.splitlines()[-1])
        lines = done.stdout.splitlines()
        info = next(line for line in lines if line.startswith("instances "))
        machine = next(line for line in lines if line.startswith("machine "))
        wall = time.perf_counter() - start
        print(f"seed {seed}: wall {wall:.1f} s, {info}, correct={result['correct']}", flush=True)
        runs.append({"seed": seed, "wall_s": wall, "machine": machine, "instances": info,
                     **result})

    names = list(runs[0]["metrics"])
    summary = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        summary[name] = {"unit": runs[0]["metrics"][name]["unit"], **summarise(values)}
        s = summary[name]
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{name:32s} median {s['median']:<12.6g} spread {spread:8s} "
              + " ".join(f"{v:.4g}" for v in values))
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        record = {"workload": args.workload, "seconds": seconds, "trace": 0,
                  "seeds": args.seeds, "summary": summary, "runs": runs}
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
