"""Scoring and the simulated-structure experiment harness.

A run sweeps a parameter grid over randomly generated structures, solves
each instance with the recursive driver and with the flat baseline solver,
and emits per-run metric rows (CSV) plus per-grid-point aggregates (JSON).
"""

import csv
import dataclasses
import itertools
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .citest import GSquaredOracle, PartialCorrelationOracle
from .framework import discover, remove_conflicts_and_redundancy
from .graph import Dag, check_count, generate_random_dag, is_real
from .solvers import EdgeSet, solve_discrete_anm, solve_lingam
from .synth import check_cpt_states, generate_discrete, generate_linear_nongaussian


class BenchError(ValueError):
    pass


@dataclass(frozen=True)
class Metrics:
    recall: float
    precision: float
    f1: float
    cut_error_ratio: Optional[float] = None


_SCORES = tuple(f.name for f in dataclasses.fields(Metrics))


def _f1(precision: float, recall: float) -> float:
    if precision + recall <= 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _recall_precision(got: frozenset, true_edges) -> tuple:
    """Strict directed-edge (recall, precision): a reversed edge is wrong
    for both. An empty result has precision 0 by convention; an edgeless
    truth has recall 1."""
    correct = len(got & true_edges)
    recall = correct / len(true_edges) if true_edges else 1.0
    precision = correct / len(got) if got else 0.0
    return recall, precision


def score(g_hat: EdgeSet, g_true: Dag, cuts=None) -> Metrics:
    """Strict directed-edge metrics of g_hat against g_true, with the
    `cut_error_ratio` of the run's accepted cuts when they are given."""
    recall, precision = _recall_precision(g_hat.pairs(), frozenset(g_true.edges))
    ratio = None if cuts is None else cut_error_ratio(cuts, g_true)
    return Metrics(recall, precision, _f1(precision, recall), ratio)


def cut_error_ratio(cuts, g_true: Dag) -> float:
    """Fraction of true edges severed by any accepted cut: the endpoints
    landed on opposite sides, so no subproblem ever sees both."""
    true_edges = g_true.edges
    if not true_edges:
        return 0.0
    severed = set()
    for cut in cuts:
        for u, v in true_edges:
            if (u in cut.left and v in cut.right) or (u in cut.right and v in cut.left):
                severed.add((u, v))
    return len(severed) / len(true_edges)


_GRID_LISTS = ("variable_sizes", "sample_sizes", "in_degrees", "noise_weights")
_GRID_COUNTS = ("variable_sizes", "sample_sizes")


@dataclass(frozen=True)
class ExperimentGrid:
    """Sweep description. The defaults pin the reference setting: 100
    variables, 200 samples, average in-degree 1.25, noise weight 0.3."""

    variable_sizes: tuple = (100,)
    sample_sizes: tuple = (200,)
    in_degrees: tuple = (1.25,)
    noise_weights: tuple = (0.3,)
    replicates: int = 20
    model: str = "continuous"
    num_states: int = 3

    def __post_init__(self):
        set_ = object.__setattr__
        for name in _GRID_LISTS:
            value = getattr(self, name)
            if value is None or np.isscalar(value):
                value = (value,)
            value = tuple(value)
            if not value:
                raise BenchError(f"{name} must be nonempty")
            if name in _GRID_COUNTS:
                value = tuple(check_count(x, 1, f"{name} entry", BenchError) for x in value)
            elif not all(is_real(x) and x > 0 for x in value):
                raise BenchError(f"{name} entries must be positive finite real numbers, "
                                 f"got {value}")
            if name == "noise_weights" and any(x > 1 for x in value):
                raise BenchError(f"noise_weights entries must be at most 1, got {value}")
            set_(self, name, value)
        set_(self, "replicates", check_count(self.replicates, 1, "replicates", BenchError))
        if self.model not in ("continuous", "discrete"):
            raise BenchError(f"model must be 'continuous' or 'discrete', got {self.model!r}")
        if self.model == "discrete" and len(self.noise_weights) > 1:
            # discrete data has no noise weight: each one would rerun the point
            raise BenchError("noise_weights applies to continuous data; a discrete grid "
                             f"takes one entry, got {self.noise_weights}")
        set_(self, "num_states", check_cpt_states(self.num_states, BenchError))
        for n, d in itertools.product(self.variable_sizes, self.in_degrees):
            if d > (n - 1) / 2:  # the most generate_random_dag can draw
                raise BenchError(f"in_degrees entry {d} exceeds (n - 1) / 2 for n={n}")

    def points(self):
        """(index, n, m, d, w) for every grid combination, in sweep order."""
        combos = itertools.product(self.variable_sizes, self.sample_sizes,
                                   self.in_degrees, self.noise_weights)
        return [(i, n, m, float(d), float(w))
                for i, (n, m, d, w) in enumerate(combos)]


def methods(kind):
    """(oracle name, oracle class, solver name, solver): the CI test and the
    leaf solver for a data kind, as `sada discover` and `sada bench` use
    them. The front ends build the oracle at their config's alpha_level."""
    return {"continuous": ("pcorr", PartialCorrelationOracle, "lingam", solve_lingam),
            "discrete": ("g2", GSquaredOracle, "anm", solve_discrete_anm)}[kind]


CSV_COLUMNS = ("model", "n", "m", "d", "w", "replicate", "method", *_SCORES,
               "wall_ms", "error")


def _subproblem_scores(log, g_true):
    """(size, recall, precision) per (variables, edges) solver invocation,
    against the true subgraph induced on the subproblem's variables."""
    out = []
    for vs, edges in log:
        true_sub = {(u, v) for u, v in g_true.edges if u in vs and v in vs}
        out.append((len(vs), *_recall_precision(edges.pairs(), true_sub)))
    return out


def _metric_row(base, method, metrics, wall_ms):
    return {**base, "method": method, **dataclasses.asdict(metrics),
            "wall_ms": wall_ms, "error": ""}


def _error_row(base, method, wall_ms, exc):
    return {**base, "method": method, **dict.fromkeys(_SCORES),
            "wall_ms": wall_ms, "error": f"{type(exc).__name__}: {exc}"}


def _run_replicate(task):
    """One grid point replicate: build the instance, run the recursive
    driver and the flat baseline, and score both. Returns (rows, subs)
    where subs carries (size, recall, precision) records."""
    model, n, m, d, w, num_states, point_index, replicate, cfg, seed = task
    base = {"model": model, "n": n, "m": m, "d": d, "w": w, "replicate": replicate}
    rows = []
    subs = []
    ss = np.random.SeedSequence([seed, point_index, replicate])
    s_graph, s_data, s_run = ss.spawn(3)
    try:
        g_true = generate_random_dag(n, d, seed=np.random.default_rng(s_graph))
        if model == "continuous":
            data = generate_linear_nongaussian(
                g_true, m, noise_weight=w, seed=np.random.default_rng(s_data))
        else:
            data = generate_discrete(
                g_true, m, num_states=num_states, seed=np.random.default_rng(s_data))
        _, oracle_cls, _, solver = methods(model)
        oracle = oracle_cls(data, alpha_level=cfg.alpha_level)
    except Exception as exc:
        rows.append(_error_row(base, "sada", 0.0, exc))
        rows.append(_error_row(base, "baseline", 0.0, exc))
        return rows, subs

    log = []

    def logged_solver(data, variables):
        edges = solver(data, variables)
        log.append((variables, edges))
        return edges

    start = time.perf_counter()
    try:
        edges, cuts = discover(data, range(n), cfg, logged_solver, oracle,
                               np.random.default_rng(s_run))
        wall = (time.perf_counter() - start) * 1000.0
        rows.append(_metric_row(base, "sada", score(edges, g_true, cuts), wall))
        subs = _subproblem_scores(log, g_true)
    except Exception as exc:
        rows.append(_error_row(base, "sada", (time.perf_counter() - start) * 1000.0, exc))

    # the baseline's cleanup gets a fresh oracle: the one run_sada filled
    # would answer from its cache and understate the baseline's time
    if model == "discrete":
        oracle = oracle_cls(data, alpha_level=cfg.alpha_level)
    start = time.perf_counter()
    try:
        flat = solver(data, range(n))
        if model == "discrete":
            flat = remove_conflicts_and_redundancy(flat, oracle, max_cond=cfg.max_cond)
        wall = (time.perf_counter() - start) * 1000.0
        rows.append(_metric_row(base, "baseline", score(flat, g_true), wall))
    except Exception as exc:
        rows.append(_error_row(base, "baseline", (time.perf_counter() - start) * 1000.0, exc))
    return rows, subs


def _aggregate(values):
    present = [v for v in values if v is not None]
    if not present:
        return {"mean": None, "std": None}
    return {"mean": float(np.mean(present)), "std": float(np.std(present))}


def _summarize_point(grid, point, rows, subs):
    _, n, m, d, w = point
    entry = {"model": grid.model, "n": n, "m": m, "d": d, "w": w, "methods": {}}
    for method in ("sada", "baseline"):
        mine = [r for r in rows if r["method"] == method]
        stats = {"runs": len(mine),
                 "errors": sum(1 for r in mine if r["error"])}
        for key in (*_SCORES, "wall_ms"):
            stats[key] = _aggregate([r[key] for r in mine])
        entry["methods"][method] = stats
    by_size = {}
    for size, rec, prec in subs:
        by_size.setdefault(size, []).append((rec, prec))
    entry["subproblems"] = {
        str(size): {"count": len(pairs),
                    "recall": float(np.mean([p[0] for p in pairs])),
                    "precision": float(np.mean([p[1] for p in pairs]))}
        for size, pairs in sorted(by_size.items())}
    return entry


def run_experiment(grid: ExperimentGrid, cfg, seed: int, workers: Optional[int] = None):
    """Run the sweep; returns (rows, summary). Each replicate owns the RNG
    stream seeded by (seed, point index, replicate), so row content does not
    depend on scheduling; workers > 1 fans replicates out to processes, and
    None or 1 runs them in this one."""
    if workers is not None:
        workers = check_count(workers, 1, "workers", BenchError)
    seed = check_count(seed, 0, "seed", BenchError)
    tasks = [(grid.model, n, m, d, w, grid.num_states, pi, rep, cfg, seed)
             for pi, n, m, d, w in grid.points()
             for rep in range(grid.replicates)]
    if workers is not None and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_replicate, tasks, chunksize=1))
    else:
        outcomes = [_run_replicate(t) for t in tasks]
    rows = [row for rows_part, _ in outcomes for row in rows_part]
    summary = {"seed": seed, "replicates": grid.replicates, "grid_points": []}
    per_point = grid.replicates
    for slot, point in enumerate(grid.points()):
        part = outcomes[slot * per_point:(slot + 1) * per_point]
        point_rows = [row for rows_part, _ in part for row in rows_part]
        point_subs = [s for _, subs_part in part for s in subs_part]
        summary["grid_points"].append(_summarize_point(grid, point, point_rows, point_subs))
    return rows, summary


def write_rows_csv(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(["" if row[c] is None else row[c] for c in CSV_COLUMNS])
