"""Scoring and the simulated-structure experiment harness.

A run sweeps a parameter grid over randomly generated structures, solves
each instance with the recursive driver and with the flat baseline solver,
and emits per-run metric rows (CSV) plus per-grid-point aggregates (JSON).
"""

import csv
import itertools
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .citest import GSquaredOracle, PartialCorrelationOracle, is_real
from .framework import clean_unmerged, remove_conflicts_and_redundancy, run_sada
from .graph import Dag, generate_random_dag, is_count
from .solvers import EdgeSet, solve_discrete_anm, solve_lingam
from .synth import CPT_FLOOR, cpt_states_ok, generate_discrete, generate_linear_nongaussian


class BenchError(ValueError):
    pass


@dataclass(frozen=True)
class Metrics:
    recall: float
    precision: float
    f1: float
    cut_error_ratio: Optional[float] = None


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


def score(g_hat: EdgeSet, g_true: Dag) -> Metrics:
    """Strict directed-edge metrics of g_hat against g_true."""
    recall, precision = _recall_precision(g_hat.pairs(), frozenset(g_true.edges))
    return Metrics(recall, precision, _f1(precision, recall))


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


def _is_integer(x) -> bool:
    """True for an integral real number; False for a bool, which is not a count."""
    return is_real(x) and float(x).is_integer()


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
            if not all(is_real(x) for x in value):
                raise BenchError(f"{name} entries must be finite real numbers, got {value}")
            if any(x <= 0 for x in value):
                raise BenchError(f"{name} entries must be positive, got {value}")
            if name in _GRID_COUNTS and not all(_is_integer(x) for x in value):
                raise BenchError(f"{name} entries must be integers, got {value}")
            if name == "noise_weights" and any(x > 1 for x in value):
                raise BenchError(f"noise_weights entries must be at most 1, got {value}")
            set_(self, name, value)
        if not _is_integer(self.replicates) or self.replicates < 1:
            raise BenchError(f"replicates must be a positive integer, got {self.replicates!r}")
        if self.model not in ("continuous", "discrete"):
            raise BenchError(f"model must be 'continuous' or 'discrete', got {self.model!r}")
        if self.model == "discrete" and len(self.noise_weights) > 1:
            # discrete data has no noise weight: each one would rerun the point
            raise BenchError("noise_weights applies to continuous data; a discrete grid "
                             f"takes one entry, got {self.noise_weights}")
        if not (_is_integer(self.num_states) and cpt_states_ok(self.num_states)):
            raise BenchError(f"num_states must be an integer >= 2 that CPT_FLOOR={CPT_FLOOR} "
                             f"leaves mass for, got {self.num_states!r}")
        for n, d in itertools.product(self.variable_sizes, self.in_degrees):
            if d > (n - 1) / 2:  # the most generate_random_dag can draw
                raise BenchError(f"in_degrees entry {d} exceeds (n - 1) / 2 for n={n}")

    @classmethod
    def from_mapping(cls, mapping) -> "ExperimentGrid":
        known = set(_GRID_LISTS) | {"replicates", "model", "num_states"}
        unknown = set(mapping) - known
        if unknown:
            raise BenchError(f"unknown grid keys: {', '.join(sorted(unknown))}")
        return cls(**mapping)

    def points(self):
        """(index, n, m, d, w) for every grid combination, in sweep order."""
        combos = itertools.product(self.variable_sizes, self.sample_sizes,
                                   self.in_degrees, self.noise_weights)
        return [(i, int(n), int(m), float(d), float(w))
                for i, (n, m, d, w) in enumerate(combos)]


CSV_COLUMNS = ("model", "n", "m", "d", "w", "replicate", "method",
               "recall", "precision", "f1", "cut_error_ratio", "wall_ms", "error")


def _subproblem_scores(log, g_true):
    """(size, recall, precision) per (variables, edges) solver invocation,
    against the true subgraph induced on the subproblem's variables."""
    out = []
    for vs, edges in log:
        true_sub = {(u, v) for u, v in g_true.edges if u in vs and v in vs}
        out.append((len(vs), *_recall_precision(edges.pairs(), true_sub)))
    return out


def _metric_row(base, method, metrics, wall_ms):
    return {**base, "method": method, "recall": metrics.recall,
            "precision": metrics.precision, "f1": metrics.f1,
            "cut_error_ratio": metrics.cut_error_ratio,
            "wall_ms": wall_ms, "error": ""}


def _error_row(base, method, wall_ms, exc):
    return {**base, "method": method, "recall": None, "precision": None,
            "f1": None, "cut_error_ratio": None, "wall_ms": wall_ms,
            "error": f"{type(exc).__name__}: {exc}"}


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
            oracle = PartialCorrelationOracle(data, alpha_level=cfg.alpha_level)
            solver = solve_lingam
        else:
            data = generate_discrete(
                g_true, m, num_states=num_states, seed=np.random.default_rng(s_data))
            oracle = GSquaredOracle(data, alpha_level=cfg.alpha_level)
            solver = solve_discrete_anm
    except Exception as exc:
        rows.append(_error_row(base, "sada", 0.0, exc))
        rows.append(_error_row(base, "baseline", 0.0, exc))
        return rows, subs

    trace, log = [], []

    def logged_solver(data, variables):
        edges = solver(data, variables)
        log.append((variables, edges))
        return edges

    start = time.perf_counter()
    try:
        edges = run_sada(data, range(n), cfg, logged_solver, oracle,
                         rng=np.random.default_rng(s_run), trace=trace)
        if model == "discrete":
            edges = clean_unmerged(edges, trace, oracle, max_cond=cfg.max_cond)
        wall = (time.perf_counter() - start) * 1000.0
        metrics = score(edges, g_true)
        metrics = Metrics(metrics.recall, metrics.precision, metrics.f1,
                          cut_error_ratio(trace, g_true))
        rows.append(_metric_row(base, "sada", metrics, wall))
        subs = _subproblem_scores(log, g_true)
    except Exception as exc:
        rows.append(_error_row(base, "sada", (time.perf_counter() - start) * 1000.0, exc))

    # the baseline's cleanup gets a fresh oracle: the one run_sada filled
    # would answer from its cache and understate the baseline's time
    if model == "discrete":
        oracle = GSquaredOracle(data, alpha_level=cfg.alpha_level)
    start = time.perf_counter()
    try:
        if model == "continuous":
            flat = solve_lingam(data, range(n))
        else:
            flat = remove_conflicts_and_redundancy(
                solve_discrete_anm(data, range(n)), oracle, max_cond=cfg.max_cond)
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
        for key in ("recall", "precision", "f1", "cut_error_ratio", "wall_ms"):
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
    if workers is not None and not is_count(workers, 1):
        raise BenchError(f"workers must be None or an integer >= 1, got {workers!r}")
    tasks = [(grid.model, n, m, d, w, grid.num_states, pi, rep, cfg, int(seed))
             for pi, n, m, d, w in grid.points()
             for rep in range(grid.replicates)]
    if workers is not None and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_replicate, tasks, chunksize=1))
    else:
        outcomes = [_run_replicate(t) for t in tasks]
    rows = [row for rows_part, _ in outcomes for row in rows_part]
    summary = {"seed": int(seed), "replicates": grid.replicates, "grid_points": []}
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


def write_summary_json(summary, path):
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
