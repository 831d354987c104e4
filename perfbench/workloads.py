"""Workload definitions, seeded instance generation, the flat baselines and
the output checks. Why each workload was chosen is recorded in
BENCHMARK.json and README.md.

Every instance follows `sada bench`'s seeding convention: replicate r of grid
point p under workload seed s draws its graph, samples and run stream from
`SeedSequence([s, p, r]).spawn(3)`. Point 0 is the workload's size n and
point 1 its half size n // 2 (with m = 2n kept), which the scaling exponent
compares against.
"""

import hashlib
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import sada
from sada.citest import ExactCiOracle, GSquaredOracle, PartialCorrelationOracle
from sada.framework import SadaConfig, remove_conflicts_and_redundancy, run_sada
from sada.graph import Dag, generate_random_dag
from sada.solvers import (EdgeSet, make_oracle_solver, oracle_solver,
                          solve_discrete_anm, solve_lingam)
from sada.synth import generate_discrete, generate_linear_nongaussian

from bootstrap import SRC

if not Path(sada.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"imported sada from {sada.__file__}, not from {SRC}")

IN_DEGREE = 1.25
THETA = 10
RESTARTS = 1
NOISE_WEIGHT = 0.3
NUM_STATES = 3
FULL, HALF = 0, 1


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "continuous", "discrete" or "oracle"
    n: int
    max_cond: Optional[int]
    # the oracle-mode baseline takes milliseconds, so one timing is mostly noise
    baseline_repeats: int = 1

    def size(self, point: int) -> int:
        return self.n if point == FULL else self.n // 2


WORKLOADS = {w.name: w for w in (
    Workload("continuous-n30", "continuous", 30, 3),
    Workload("discrete-n60", "discrete", 60, 3),
    Workload("oracle-n200", "oracle", 200, None, baseline_repeats=9),
)}


@dataclass
class Instance:
    """One generated problem with the objects each method is handed."""

    replicate: int
    truth: Dag
    data: object  # SampleMatrix, or None in oracle mode
    oracle: object
    solver: Callable
    cfg: SadaConfig
    rng: np.random.Generator


def span(tracer, name):
    return nullcontext() if tracer is None else tracer.span(name)


def build_instance(wl: Workload, seed: int, point: int, replicate: int, tracer=None) -> Instance:
    n = wl.size(point)
    s_graph, s_data, s_run = np.random.SeedSequence([seed, point, replicate]).spawn(3)
    with span(tracer, "graph.generate"):
        truth = generate_random_dag(n, IN_DEGREE, seed=np.random.default_rng(s_graph))
    cfg = SadaConfig(theta=THETA, k=RESTARTS, max_cond=wl.max_cond)
    if wl.kind == "oracle":
        data = None
        oracle = ExactCiOracle(truth)
        solver = make_oracle_solver(truth)
    elif wl.kind == "continuous":
        with span(tracer, "synth.generate"):
            data = generate_linear_nongaussian(truth, 2 * n, noise_weight=NOISE_WEIGHT,
                                               seed=np.random.default_rng(s_data))
        oracle = PartialCorrelationOracle(data, alpha_level=cfg.alpha_level)
        solver = solve_lingam
    else:
        with span(tracer, "synth.generate"):
            data = generate_discrete(truth, 2 * n, num_states=NUM_STATES,
                                     seed=np.random.default_rng(s_data))
        oracle = GSquaredOracle(data, alpha_level=cfg.alpha_level)
        solver = solve_discrete_anm
    return Instance(replicate, truth, data, oracle, solver, cfg, np.random.default_rng(s_run))


def solve(inst: Instance, cuts: list) -> EdgeSet:
    """The recursive driver on the whole instance; accepted cuts go to `cuts`."""
    return run_sada(inst.data, range(inst.truth.n), inst.cfg, inst.solver, inst.oracle,
                    rng=inst.rng, trace=cuts)


def baseline_oracle(wl: Workload, inst: Instance):
    """A fresh oracle for the baseline's cleanup, so that it never starts
    from the caches run_sada filled; None where the baseline needs none."""
    if wl.kind == "oracle":
        return ExactCiOracle(Dag(inst.truth.n, inst.truth.edges))
    if wl.kind == "discrete":
        return GSquaredOracle(inst.data, alpha_level=inst.cfg.alpha_level)
    return None


def solve_flat(wl: Workload, inst: Instance, oracle, tracer=None) -> EdgeSet:
    """The full-problem method `sada bench` compares against: LiNGAM on all
    variables, or ANM on all variables plus one conflict and redundancy
    cleanup. Oracle mode uses the true graph plus the same cleanup."""
    n = inst.truth.n
    with span(tracer, "solvers.flat"):
        if wl.kind == "continuous":
            return solve_lingam(inst.data, range(n))
        if wl.kind == "discrete":
            flat = solve_discrete_anm(inst.data, range(n))
        else:
            flat = oracle_solver(inst.truth, range(n))
    with span(tracer, "framework.cleanup"):
        return remove_conflicts_and_redundancy(flat, oracle, max_cond=wl.max_cond)


def _has_cycle(pairs, n: int) -> bool:
    indegree = [0] * n
    children = [[] for _ in range(n)]
    for u, v in pairs:
        children[u].append(v)
        indegree[v] += 1
    ready = [v for v in range(n) if indegree[v] == 0]
    seen = 0
    while ready:
        u = ready.pop()
        seen += 1
        for c in children[u]:
            indegree[c] -= 1
            if indegree[c] == 0:
                ready.append(c)
    return seen < n


def check(wl: Workload, inst: Instance, edges: EdgeSet) -> Optional[str]:
    """Why a result is wrong, or None. Every result must stay inside the
    variable range and be acyclic; in oracle mode it must equal the truth."""
    n = inst.truth.n
    pairs = edges.pairs()
    for u, v in sorted(pairs):
        if not (0 <= u < n and 0 <= v < n):
            return f"edge {u}->{v} outside 0..{n - 1}"
    if _has_cycle(pairs, n):
        return "directed cycle"
    if wl.kind == "oracle" and pairs != inst.truth.edges:
        return (f"{len(inst.truth.edges - pairs)} true edges missing, "
                f"{len(pairs - inst.truth.edges)} extra")
    return None


def digest(edges: EdgeSet) -> str:
    text = ";".join(f"{u}>{v}" for u, v in sorted(edges.pairs()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
