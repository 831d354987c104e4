"""Benchmark entry point: one workload, one seed, one serial process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it measures the `sada` sources in the
checkout's `src/`. Progress and a table of every metric go to standard
output; the last line is the result as one JSON object. The full record
(machine facts, digests, shares of traced time) lands in `.bench_out/`.
Exits with code 2 when the checkout has no `sada` sources.
"""

import argparse
import json
import sys

import bootstrap


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def log(line):
    print(line, flush=True)


def main(argv=None):
    args = parse(argv)
    bootstrap.prepare()
    import measure
    from workloads import HALF, WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        sys.stderr.write(f"unknown workload {args.workload!r}; "
                         f"known: {', '.join(WORKLOADS)}\n")
        return 2
    facts = bootstrap.machine_facts()
    log("machine " + " ".join(f"{k}={v}" for k, v in facts.items()))
    log(f"workload {wl.name}: {wl.kind}, n={wl.n}, half size n={wl.size(HALF)}, "
        f"seed={args.seed}, seconds={args.seconds:g}, trace={args.trace}")
    result, record = measure.run(wl, args.seed, args.seconds, args.trace, log)
    log(f"instances {record['instances']}; attempted {result['attempted']}, "
        f"failed {result['failed']}")
    for name, m in result["metrics"].items():
        log(f"metric {name} = {m['value']} {m['unit']}")
    for name, (value, unit) in record.get("also", {}).items():
        log(f"also {name} = {value} {unit}")
    for key in ("digest", "share_of_traced_solve", "share_of_traced_baseline", "spans_file"):
        if key in record:
            log(f"{key} = {json.dumps(record[key])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
