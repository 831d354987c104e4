"""The measured loops behind `run.py`, one serial process per workload run.

A run works through the workload's instances in replicate order, 0, 1, 2,
..., starting a new one until `seconds` have passed, so the instance count
follows the program's speed and is reported with the results; a slower
program is measured on fewer instances instead of overrunning.

Untraced run, per replicate: `run_sada` at size n, the flat baseline on the
same instance, and `run_sada` at n // 2, with the reference kernel timed
between replicates. Set-up is timed in fresh processes.
Traced run, per replicate: `run_sada` untraced, then again on a freshly
generated copy with spans around every layer, then the traced baseline.
Every result is checked; a failed or wrong result counts in `failed` and its
time is left out of every timing.
"""

import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

from sada.bench import cut_error_ratio, score

import bootstrap
from reference import reference_seconds
from tracing import Tracer
from workloads import (FULL, HALF, baseline_oracle, build_instance, check, digest,
                       solve, solve_flat)

SETUP_PROCESSES = 3
SETUP_UNITS = 4
DIGEST_UNITS = 3
SETUP_PROBE = Path(__file__).resolve().parent / "setup_probe.py"


def attempt(fn, *args):
    """(result, nanoseconds, error text or None) for one call of the program."""
    start = perf_counter_ns()
    try:
        out = fn(*args)
    except Exception as exc:  # every failure is counted and reported, never fatal
        return None, perf_counter_ns() - start, f"{type(exc).__name__}: {exc}"
    return out, perf_counter_ns() - start, None


class Tally:
    """Attempts, failures and the log lines that explain each failure."""

    def __init__(self, log):
        self.attempted = 0
        self.failed = 0
        self.log = log

    def record(self, what, rep, error):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.log(f"FAILED {what} replicate {rep}: {error}")
        return error is None


def setup_seconds(wl, seed):
    """Import plus instance generation, timed inside one fresh process."""
    cmd = [sys.executable, str(SETUP_PROBE), wl.name, str(seed), str(SETUP_UNITS)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True, cwd=bootstrap.ROOT)
    return float(done.stdout.split()[-1])


def solve_checked(wl, inst, tally, what):
    """Run the recursive driver and check its result; returns
    (edges, seconds, cuts) or None when it raised or was wrong."""
    cuts = []
    edges, ns, error = attempt(solve, inst, cuts)
    if error is None:
        error = check(wl, inst, edges)
    if not tally.record(what, inst.replicate, error):
        return None
    return edges, ns / 1e9, cuts


def flat_checked(wl, inst, tally, repeats, tracer=None):
    """Run the flat baseline `repeats` times, each with a fresh oracle, and
    record it in the tally once, failed if any run failed; returns
    (edges, fastest seconds) or None."""
    times = []
    error = None
    for _ in range(repeats):
        edges, ns, error = attempt(solve_flat, wl, inst, baseline_oracle(wl, inst), tracer)
        if error is None:
            error = check(wl, inst, edges)
        if error is not None:
            break
        times.append(ns / 1e9)
    if not tally.record("baseline", inst.replicate, error):
        return None
    return edges, min(times)


def format_row(row):
    return " ".join(f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}"
                    for k, v in row.items())


def replicates(seconds):
    """0, 1, 2, ... while a further replicate, of the mean length so far,
    would end no more than half its length past the deadline."""
    start = perf_counter()
    rep = 0
    while rep == 0 or perf_counter() + 0.5 * (perf_counter() - start) / rep < start + seconds:
        yield rep
        rep += 1


def measure_replicate(wl, seed, rep, tally):
    """Time and check run_sada, the baseline and the half-size run_sada on
    replicate `rep`."""
    inst = build_instance(wl, seed, FULL, rep)
    row = {"replicate": rep}
    got = solve_checked(wl, inst, tally, "run_sada")
    if got is not None:
        edges, row["sada_s"], cuts = got
        row.update(f1=score(edges, inst.truth).f1,
                   cut_error=cut_error_ratio(cuts, inst.truth),
                   cuts=len(cuts), edges=len(edges), digest=digest(edges))
    got = flat_checked(wl, inst, tally, wl.baseline_repeats)
    if got is not None:
        row["baseline_s"] = got[1]
        row["baseline_f1"] = score(got[0], inst.truth).f1
        row["baseline_digest"] = digest(got[0])
    got = solve_checked(wl, build_instance(wl, seed, HALF, rep), tally, "run_sada half size")
    if got is not None:
        row["half_s"] = got[1]
        row["half_digest"] = digest(got[0])
    return row


def run_untraced(wl, seed, seconds, log):
    """End-to-end metrics. Times are reported in units of the reference
    kernel (see reference.py), timed between replicates: each replicate is
    divided by the mean of the kernel runs just before and just after it."""
    start = perf_counter()
    setup_runs = [setup_seconds(wl, seed) for _ in range(SETUP_PROCESSES)]
    log(f"setup_s per fresh process: {' '.join(f'{t:.4f}' for t in setup_runs)}")
    tally = Tally(log)
    rows = []
    kernel_before = reference_seconds()
    for rep in replicates(seconds - (perf_counter() - start)):
        row = measure_replicate(wl, seed, rep, tally)
        kernel_after = reference_seconds()
        row["ref_s"] = (kernel_before + kernel_after) / 2
        kernel_before = kernel_after
        for key in ("sada", "baseline", "half"):
            if f"{key}_s" in row:
                row[f"{key}_ref"] = row[f"{key}_s"] / row["ref_s"]
        rows.append(row)
        log(format_row(row))

    def column(key):
        return [row[key] for row in rows if key in row]

    def mean(key):
        return statistics.fmean(column(key)) if column(key) else None

    def median(key):
        return statistics.median(column(key)) if column(key) else None

    p50, half_p50 = median("sada_ref"), median("half_ref")
    metrics = {
        "setup_s": (statistics.median(setup_runs), "s"),
        "solve_ref": (mean("sada_ref"), "ref"),
        "instance_p50_ref": (p50, "ref"),
        "scaling_exponent": (math.log2(p50 / half_p50) if p50 and half_p50 else None, "1"),
        "baseline_ref": (mean("baseline_ref"), "ref"),
        "f1": (mean("f1"), "1"),
        "baseline_f1": (mean("baseline_f1"), "1"),
        "cut_keep_ratio": (1.0 - mean("cut_error") if column("cut_error") else None, "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    summary = {
        "instances": len(rows),
        "setup_runs_s": setup_runs,
        "also": {"solve_s": (mean("sada_s"), "s"),
                 "instance_p50_s": (median("sada_s"), "s"),
                 "baseline_s": (mean("baseline_s"), "s"),
                 "ref_s": (median("ref_s"), "s"),
                 "cut_error_ratio": (mean("cut_error"), "1"),
                 "error_rate": (tally.failed / tally.attempted, "1")},
        "digest": combined_digest(column("digest"), tally.failed),
        "rows": rows,
    }
    return tally, metrics, summary


def combined_digest(digests, failed):
    """Digest of the first DIGEST_UNITS results, comparable across runs
    of one seed whatever their instance count, or None if any is missing."""
    if len(digests) < DIGEST_UNITS or failed:
        return None
    return hashlib.sha256("".join(digests[:DIGEST_UNITS]).encode()).hexdigest()[:16]


def run_traced(wl, seed, seconds, log, spans_path):
    tally = Tally(log)
    tracer = Tracer()
    untraced_ns = 0
    instances = 0

    def traced_solve(inst, cuts):
        with tracer.span("instance"):
            return solve(inst, cuts)

    for rep in replicates(seconds):
        plain = solve_checked(wl, build_instance(wl, seed, FULL, rep), tally, "run_sada")
        tracer.instance = rep
        inst = build_instance(wl, seed, FULL, rep, tracer)
        with tracer.installed(inst):
            edges, ns, error = attempt(traced_solve, inst, [])
        if error is None:
            error = check(wl, inst, edges)
        if error is None and plain is not None and digest(edges) != digest(plain[0]):
            error = "traced result differs from the untraced one"
        if tally.record("traced run_sada", rep, error) and plain is not None:
            untraced_ns += round(plain[1] * 1e9)
        flat_checked(wl, inst, tally, 1, tracer)
        log(f"replicate {rep}: untraced {plain[1] if plain else float('nan'):.4f} s, "
            f"traced {ns / 1e9:.4f} s")
        instances += 1
    tracer.write(spans_path)
    metrics = tracer.layer_metrics(wl.kind, instances, untraced_ns)
    solve_total = metrics["trace.solve_s"][0]
    flat_total = metrics["trace.baseline_s"][0]
    summary = {
        "instances": instances,
        "spans": len(tracer.span_start),
        "spans_file": str(spans_path.relative_to(bootstrap.ROOT)),
        "share_of_traced_solve": {
            "citest.query_s": _share(metrics["citest.query_s"][0], solve_total),
            "graph.dsep_s+framework.cut_self_s": _share(
                metrics["graph.dsep_s"][0] + metrics["framework.cut_self_s"][0], solve_total),
            "framework.merge_s": _share(metrics["framework.merge_s"][0], solve_total),
            "solvers.leaf_s": _share(metrics["solvers.leaf_s"][0], solve_total),
        },
        "share_of_traced_baseline": {
            "solvers.flat_s": _share(metrics["solvers.flat_s"][0], flat_total),
            "framework.cleanup_s": _share(metrics["framework.cleanup_s"][0], flat_total),
        },
    }
    return tally, metrics, summary


def _share(part, whole):
    return part / whole if whole else None


def run(wl, seed, seconds, trace, log):
    """Measure one workload; returns the result object run.py prints, plus
    the full record it writes under .bench_out/."""
    stem = f"{wl.name}-seed{seed}-trace{int(trace)}"
    if trace:
        tally, metrics, summary = run_traced(wl, seed, seconds, log,
                                             bootstrap.OUT / f"{stem}-spans.npz")
    else:
        tally, metrics, summary = run_untraced(wl, seed, seconds, log)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {"workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": bootstrap.machine_facts(), **summary, **result}
    bootstrap.OUT.mkdir(exist_ok=True)
    (bootstrap.OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    return result, record
