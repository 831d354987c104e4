"""Compare benchmark records of a parent checkout and a change.

    python3 tools/compare_bench.py PARENT CHANGE

PARENT and CHANGE each name benchmark records: a record file written by
`perfbench/run.py`, a directory of them, or a checkout whose `.bench_out/`
holds them. Several runs of one workload on one side are pooled. For each
workload and trace mode the script prints every metric's median on both
sides and the change/parent ratio, the `failed` and `attempted` counts, and
how many per-replicate `digest`, `baseline_digest` and `half_digest` values
both sides ran and how many of those differ. A replicate is identified by
workload, seed and replicate number; its value on one side must be the same
in every run of that side.

The end-to-end quality metrics average over every replicate a run reached,
so a faster side averages over more of them. The script therefore also
prints, over the replicates both sides ran, the mean per-replicate `f1`,
`baseline_f1` and 1 - `cut_error` of each side, and the median over those
replicates of the change/parent ratio of `sada_ref`, `baseline_ref` and
`half_ref`, each side's value being its median over its runs. Exits 1 when a
digest differs, 2 when a side has no records, 0 otherwise. Standard library
only.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

DIGEST_FIELDS = ("digest", "baseline_digest", "half_digest")
# per-replicate quality, averaged over the replicates both sides ran
QUALITY_FIELDS = ("f1", "baseline_f1", "cut_error")
# per-replicate times, compared replicate by replicate
PAIRED_FIELDS = ("sada_ref", "baseline_ref", "half_ref")


def record_files(arg: str) -> list:
    """The record files arg names, in name order."""
    path = Path(arg)
    if path.is_file():
        return [path]
    if (path / ".bench_out").is_dir():
        path = path / ".bench_out"
    return sorted(path.glob("*.json"))


def load(arg: str) -> list:
    return [json.loads(f.read_text()) for f in record_files(arg)]


def summarize(records: list) -> dict:
    """Per (workload, trace): each metric's values, the failed and attempted
    counts, each replicate digest's set of values, and each replicate's
    quality and time values by field."""
    out = defaultdict(lambda: {"metrics": defaultdict(list), "failed": 0, "attempted": 0,
                               "runs": 0, "digests": defaultdict(set),
                               "replicates": defaultdict(lambda: defaultdict(list))})
    for rec in records:
        group = out[rec["workload"], rec.get("trace", 0)]
        group["runs"] += 1
        group["failed"] += rec.get("failed", 0)
        group["attempted"] += rec.get("attempted", 0)
        for name, metric in rec.get("metrics", {}).items():
            group["metrics"][name].append(metric["value"])
        for row in rec.get("rows", []):
            for field in DIGEST_FIELDS:
                if row.get(field) is not None:
                    key = (rec.get("seed"), row.get("replicate"), field)
                    group["digests"][key].add(row[field])
            values = group["replicates"][rec.get("seed"), row.get("replicate")]
            for field in QUALITY_FIELDS + PAIRED_FIELDS:
                if row.get(field) is not None:
                    values[field].append(row[field])
    return out


def paired(parent: dict, change: dict, field: str) -> list:
    """(parent, change) values of `field` on each replicate both sides ran
    with it, each side's value being its median over its runs."""
    keys = sorted(set(parent) & set(change), key=str)
    return [(statistics.median(parent[k][field]), statistics.median(change[k][field]))
            for k in keys if parent[k].get(field) and change[k].get(field)]


def compare(parent: dict, change: dict) -> int:
    """Print the comparison; the number of replicate digests that differ."""
    mismatches = 0
    for group in sorted(set(parent) | set(change), key=str):
        p, c = parent.get(group), change.get(group)
        print(f"== {group[0]} (trace {group[1]}): parent {p['runs'] if p else 0} runs, "
              f"change {c['runs'] if c else 0} runs")
        if not (p and c):
            print("   only one side ran this workload")
            continue
        print(f"   {'metric':28s} {'parent':>12s} {'change':>12s} {'ratio':>8s}")
        for name in sorted(set(p["metrics"]) | set(c["metrics"])):
            pm, cm = (statistics.median(s["metrics"][name]) if s["metrics"].get(name) else None
                      for s in (p, c))
            ratio = f"{cm / pm:8.3f}" if pm and cm is not None else f"{'-':>8s}"
            print(f"   {name:28s} {_num(pm):>12s} {_num(cm):>12s} {ratio}")
        print(f"   failed: parent {p['failed']} of {p['attempted']}, "
              f"change {c['failed']} of {c['attempted']}")
        shared = differ = 0
        for key in sorted(set(p["digests"]) & set(c["digests"]), key=str):
            pv, cv = p["digests"][key], c["digests"][key]
            if len(pv) == 1 and pv == cv:
                shared += 1
            else:
                differ += 1
                print(f"   digest differs: seed {key[0]} replicate {key[1]} {key[2]}: "
                      f"parent {sorted(pv)}, change {sorted(cv)}")
        print(f"   replicate digests both sides ran: {shared + differ}, "
              f"identical {shared}, different {differ}")
        mismatches += differ
        print_replicates(p["replicates"], c["replicates"])
    return mismatches


def print_replicates(parent: dict, change: dict) -> None:
    print("   over the replicates both sides ran:")
    for field in QUALITY_FIELDS:
        pairs = paired(parent, change, field)
        if pairs:
            means = [statistics.fmean(side) for side in zip(*pairs)]
            label = field
            if field == "cut_error":
                label, means = "1 - cut_error", [1.0 - x for x in means]
            print(f"   {label:28s} {_num(means[0]):>12s} {_num(means[1]):>12s}"
                  f"   mean of {len(pairs)}")
    for field in PAIRED_FIELDS:
        ratios = [c / p for p, c in paired(parent, change, field) if p]
        if ratios:
            print(f"   {field + ' change/parent':28s} {'':>12s} {'':>12s} "
                  f"{statistics.median(ratios):8.3f}   median of {len(ratios)}")


def _num(x) -> str:
    return "-" if x is None else f"{x:.4g}"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 tools/compare_bench.py PARENT CHANGE", file=sys.stderr)
        return 2
    sides = [load(a) for a in args]
    for arg, records in zip(args, sides):
        if not records:
            print(f"no benchmark records in {arg}", file=sys.stderr)
            return 2
    return 1 if compare(*(summarize(r) for r in sides)) else 0


if __name__ == "__main__":
    sys.exit(main())
