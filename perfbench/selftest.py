"""Self-test of the benchmark at tiny sizes, about half a minute:

    python3 perfbench/selftest.py

Checks that both run modes of every workload report each metric that
BENCHMARK.json names, with its unit; that injected bad results count as
failures (a solver that returns a 2-cycle, and an oracle-mode result with one
true edge missing); that traced spans nest and carry instance ids as they
should; and that a directory without the `sada` sources makes
`run.py` exit non-zero without printing a result.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import bootstrap

bootstrap.prepare()

import measure  # noqa: E402
import workloads  # noqa: E402
import numpy as np  # noqa: E402
from sada.solvers import EdgeSet  # noqa: E402

TINY = 12
SEED = 5


def expect(ok, what):
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def quiet(_line):
    pass


def declared_metrics():
    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def check_metric_names():
    end_to_end, per_layer = declared_metrics()
    for wl in workloads.WORKLOADS.values():
        tiny = dataclasses.replace(wl, n=TINY)
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            result, _ = measure.run(tiny, SEED, 0, trace, quiet)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(result["correct"] and result["failed"] == 0,
                   f"{wl.name} trace={trace}: every tiny result passes its checks")
            expect(got == declared,
                   f"{wl.name} trace={trace}: reports exactly the declared metrics and units")
            expect(all(isinstance(m["value"], float) for m in result["metrics"].values()),
                   f"{wl.name} trace={trace}: every metric has a value")


def check_spans():
    """A search inside another (the generic `separable` calls
    `find_separator`) is not a span of its own, and each replicate's
    generation spans carry that replicate's id."""
    for wl in workloads.WORKLOADS.values():
        tiny = dataclasses.replace(wl, n=TINY)
        _, record = measure.run(tiny, SEED, 1, 1, quiet)
        spans = np.load(bootstrap.ROOT / record["spans_file"])
        names = list(spans["names"])
        search = names.index("citest.search")
        is_search = spans["name"] == search
        parents = spans["parent"][is_search]
        expect(not np.any(spans["name"][parents[parents >= 0]] == search),
               f"{wl.name}: no citest.search span nests in another")
        generated = spans["instance"][spans["name"] == names.index("graph.generate")]
        expect(list(generated) == list(range(record["instances"])),
               f"{wl.name}: graph.generate spans carry their replicate's id")


def run_with_solver(wl, make_solver):
    """One untraced replicate whose leaf solver is replaced; the workload is
    small enough that the whole problem is a single leaf."""
    original = measure.build_instance

    def build(*args, **kwargs):
        inst = original(*args, **kwargs)
        inst.solver = make_solver(inst)
        return inst

    lines = []
    measure.build_instance = build
    try:
        result, _ = measure.run(dataclasses.replace(wl, n=workloads.THETA - 2), SEED, 0, 0,
                                lines.append)
    finally:
        measure.build_instance = original
    return result, lines


def check_injected_failures():
    def two_cycle(_inst):
        return lambda data, variables: EdgeSet([(0, 1, 1.0), (1, 0, 1.0)])

    result, lines = run_with_solver(workloads.WORKLOADS["continuous-n30"], two_cycle)
    expect(not result["correct"] and result["failed"] >= 1
           and any("directed cycle" in line for line in lines),
           "a solver returning a 2-cycle counts as a failed result")

    def drop_one_edge(inst):
        first, solve = min(inst.truth.edges), inst.solver
        return lambda data, variables: EdgeSet(
            e for e in solve(data, variables) if (e.parent, e.child) != first)

    result, lines = run_with_solver(workloads.WORKLOADS["oracle-n200"], drop_one_edge)
    expect(not result["correct"] and result["failed"] >= 1
           and any("1 true edges missing" in line for line in lines),
           "an oracle-mode result with one edge missing counts as a failed result")


def check_missing_sources():
    with tempfile.TemporaryDirectory(dir=bootstrap.OUT) as tmp:
        shutil.copy(bootstrap.ROOT / "BENCHMARK.json", tmp)
        here = Path(__file__).resolve().parent
        shutil.copytree(here, Path(tmp) / here.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, f"{here.name}/run.py", "--workload", "oracle-n200",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
    expect(done.returncode != 0 and not done.stdout.strip(),
           "without sada sources run.py exits non-zero and prints no result")


def main():
    bootstrap.OUT.mkdir(exist_ok=True)
    real_out = bootstrap.OUT
    with tempfile.TemporaryDirectory(dir=real_out) as tmp:
        bootstrap.OUT = Path(tmp)
        try:
            check_metric_names()
            check_spans()
            check_injected_failures()
        finally:
            bootstrap.OUT = real_out
    check_missing_sources()
    print("selftest passed")


if __name__ == "__main__":
    main()
