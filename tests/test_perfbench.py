"""The benchmark under perfbench/ drives the package from outside, and its
self-test runs both modes of every workload at tiny sizes and exits non-zero
when a source change breaks one of them. A simplification must keep every
`sada` name it reads:

- `run_sada(data, variables, cfg, solver, oracle, rng=, trace=)`, appending
  each accepted cut to `trace`, and `SadaConfig(theta=, k=, max_cond=)`
  with `cfg.alpha_level`;
- `PartialCorrelationOracle(data, alpha_level=)`,
  `GSquaredOracle(data, alpha_level=)` and `ExactCiOracle(dag)`, with the
  instance attributes `query`, `find_separator(u, v, candidates, max_cond)`
  and `separable(u, vs, candidates, max_cond)`, which it replaces with
  wrappers, `CiError`, the verdict cache `oracle._cache` and
  `ExactCiOracle.graph._dsep_cache`;
- the module globals `sada.framework.find_causal_cut(oracle, variables, cfg,
  rng=)` and `sada.framework.merge_results(g1, g2, oracle, max_cond=)`,
  which it rebinds, and `remove_conflicts_and_redundancy(edges, oracle,
  max_cond=)`;
- `CausalCut.min_side`;
- `make_oracle_solver`, `oracle_solver`, `solve_lingam`,
  `solve_discrete_anm` and `EdgeSet` with its `pairs()`;
- `Dag(n, edges)` with `n` and `edges`, `generate_random_dag`,
  `generate_linear_nongaussian`, `generate_discrete`, and `sada.bench`'s
  `score` and `cut_error_ratio`."""

import inspect
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import sada.framework
from sada.citest import ExactCiOracle, GSquaredOracle, PartialCorrelationOracle
from sada.framework import SadaConfig, run_sada
from sada.graph import CausalCut, Dag, generate_random_dag
from sada.solvers import make_oracle_solver, solve_lingam
from sada.synth import SampleMatrix, generate_linear_nongaussian

ROOT = Path(__file__).resolve().parent.parent

# The combined edge-set digests (`digest = ...` in `perfbench/run.py`'s
# output) of the first three seed-2026 replicates of each workload, at full
# size and at the half size the scaling exponent compares against, and of
# the continuous and discrete flat baselines. A change that keeps edge sets
# unchanged at a fixed seed keeps these.
SEED_2026_DIGESTS = {
    "continuous-n30": "2dbf98473c0af3ab",
    "continuous-n30 half": "f169835bdf463795",
    "discrete-n60": "0ef84aff7a0b0dfa",
    "discrete-n60 half": "d61dec73ab74f882",
    "oracle-n200": "b4aec831f32c4611",
    "oracle-n200 half": "efb71fd7ac7de406",
    "continuous-n30 baseline": "19fb2fef08bf9e6d",
    "discrete-n60 baseline": "78137b5a5de2103b",
}

DIGEST_SCRIPT = """
import json, sys
sys.path.insert(0, "perfbench")
import bootstrap
bootstrap.prepare()
from measure import DIGEST_UNITS, combined_digest
from workloads import (FULL, HALF, WORKLOADS, baseline_oracle, build_instance, digest,
                       solve, solve_flat)

out = {}
for name, wl in WORKLOADS.items():
    insts = [build_instance(wl, 2026, FULL, rep) for rep in range(DIGEST_UNITS)]
    out[name] = combined_digest([digest(solve(inst, [])) for inst in insts], 0)
    halves = [build_instance(wl, 2026, HALF, rep) for rep in range(DIGEST_UNITS)]
    out[name + " half"] = combined_digest([digest(solve(inst, [])) for inst in halves], 0)
    if wl.kind != "oracle":
        flat = [digest(solve_flat(wl, inst, baseline_oracle(wl, inst))) for inst in insts]
        out[name + " baseline"] = combined_digest(flat, 0)
print(json.dumps(out))
"""


def params(f):
    return list(inspect.signature(f).parameters)


def test_names_the_benchmark_reads():
    # the quick check of the contract above; the self-test below runs it
    fw = sada.framework
    assert params(fw.run_sada) == ["data", "variables", "cfg", "solver", "oracle", "rng", "trace"]
    assert params(fw.find_causal_cut) == ["oracle", "variables", "cfg", "rng"]
    assert params(fw.merge_results) == ["g1", "g2", "oracle", "max_cond"]
    assert params(fw.remove_conflicts_and_redundancy) == ["edges", "oracle", "max_cond"]
    assert params(PartialCorrelationOracle) == params(GSquaredOracle) == ["data", "alpha_level"]
    assert params(ExactCiOracle) == ["g"]
    exact = ExactCiOracle(Dag(2))
    assert type(exact.graph._dsep_cache) is dict
    continuous = SampleMatrix(np.random.default_rng(0).random((20, 2)), "continuous")
    discrete = SampleMatrix(np.zeros((20, 2), dtype=np.int64), "discrete", num_states=2)
    for oracle in (exact, PartialCorrelationOracle(continuous), GSquaredOracle(discrete)):
        assert type(oracle._cache) is dict
        assert params(oracle.find_separator) == ["u", "v", "candidates", "max_cond"]
        assert params(oracle.separable) == ["u", "vs", "candidates", "max_cond"]
    assert CausalCut(frozenset({0}), frozenset(), frozenset({1, 2})).min_side == 1


def test_every_search_hook_runs_under_the_traced_entry_points():
    # the tracer times an oracle's searches by replacing the instance's
    # `separable` and `find_separator`; a run whose cut search or merge
    # reached a search hook some other way would escape what it measures
    g = generate_random_dag(40, 1.25, seed=3)
    data = generate_linear_nongaussian(g, 80, seed=4)
    for oracle, samples, solver, cap in ((ExactCiOracle(g), None, make_oracle_solver(g), None),
                                         (PartialCorrelationOracle(data), data, solve_lingam, 3)):
        depth = [0]
        # hook name: [calls under a wrapper, calls around them]
        hooks = {"_separable": [0, 0], "_pool": [0, 0]}

        def outermost(search):
            def traced(u, v, candidates, max_cond=3):
                depth[0] += 1
                try:
                    return search(u, v, candidates, max_cond)
                finally:
                    depth[0] -= 1
            return traced

        def counted(name, hook):
            def wrapped(*args):
                hooks[name][0 if depth[0] else 1] += 1
                return hook(*args)
            return wrapped

        oracle.find_separator = outermost(oracle.find_separator)
        oracle.separable = outermost(oracle.separable)
        for name in hooks:
            setattr(oracle, name, counted(name, getattr(oracle, name)))
        run_sada(samples, range(g.n), SadaConfig(max_cond=cap), solver, oracle,
                 rng=np.random.default_rng(2026))
        assert all(through > 0 and around == 0 for through, around in hooks.values()), hooks


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_seed_2026_edge_set_digests():
    proc = subprocess.run([sys.executable, "-c", DIGEST_SCRIPT],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1]) == SEED_2026_DIGESTS
