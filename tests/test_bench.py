import csv
import dataclasses
import json

import numpy as np
import pytest

from sada.bench import (
    CSV_COLUMNS,
    BenchError,
    ExperimentGrid,
    Metrics,
    cut_error_ratio,
    run_experiment,
    score,
    write_rows_csv,
)
import sada.bench
from sada.citest import ExactCiOracle, GSquaredOracle
from sada.framework import SadaConfig, run_sada
from sada.graph import CausalCut, Dag, generate_random_dag
from sada.solvers import EdgeSet, make_oracle_solver

from conftest import NINE_NODE_EDGES, value_id


def edge_set(*triples):
    out = EdgeSet()
    for p, c, s in triples:
        out.add(p, c, s)
    return out


class TestScore:
    def test_perfect(self, nine_node):
        g_hat = edge_set(*[(u, v, 1.0) for u, v in NINE_NODE_EDGES])
        assert score(g_hat, nine_node) == Metrics(1.0, 1.0, 1.0)

    def test_empty_result(self, nine_node):
        assert score(EdgeSet(), nine_node) == Metrics(0.0, 0.0, 0.0)

    def test_edgeless_truth(self):
        assert score(EdgeSet(), Dag(3, [])) == Metrics(1.0, 0.0, 0.0)
        got = score(edge_set((0, 1, 0.5)), Dag(3, []))
        assert got == Metrics(1.0, 0.0, 0.0)

    def test_half_right(self, chain3):
        g_hat = edge_set((0, 1, 0.9), (2, 1, 0.8))  # second edge reversed
        assert score(g_hat, chain3) == Metrics(0.5, 0.5, 0.5)

    def test_reversed_edges_count_as_wrong(self, chain3):
        flipped = edge_set((1, 0, 0.9), (2, 1, 0.8))
        assert score(flipped, chain3) == Metrics(0.0, 0.0, 0.0)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(3, 8))
            true_edges = [(u, v) for v in range(1, n) for u in range(v)
                          if rng.random() < 0.4]
            guess = [(u, v) for v in range(1, n) for u in range(v)
                     if rng.random() < 0.4]
            perm = rng.permutation(n)
            g_true = Dag(n, true_edges)
            g_hat = edge_set(*[(u, v, 0.5) for u, v in guess])
            relabeled_true = Dag(n, [(perm[u], perm[v]) for u, v in true_edges])
            relabeled_hat = edge_set(*[(perm[u], perm[v], 0.5) for u, v in guess])
            assert score(g_hat, g_true) == score(relabeled_hat, relabeled_true)

    def test_cuts_fill_the_cut_error_ratio(self, nine_node):
        # score(edges, truth, cuts) is the two-argument score with the
        # cuts' ratio filled in, and the ratio stays None without cuts
        g_hat = edge_set((0, 2, 0.9), (3, 6, 0.8), (7, 4, 0.7), (5, 8, 0.6))
        trace = []
        run_sada(None, range(9), SadaConfig(theta=4, max_cond=None),
                 make_oracle_solver(nine_node), ExactCiOracle(nine_node),
                 rng=np.random.default_rng(3), trace=trace)
        bad = CausalCut(frozenset({0, 1, 2}), frozenset({3}), frozenset({4, 5, 6, 7, 8}))
        for cuts in ([], trace, [bad], trace + [bad]):
            want = dataclasses.replace(score(g_hat, nine_node),
                                       cut_error_ratio=cut_error_ratio(cuts, nine_node))
            assert score(g_hat, nine_node, cuts) == want
        assert score(g_hat, nine_node, [bad]).cut_error_ratio == 0.3
        assert score(g_hat, nine_node).cut_error_ratio is None


class TestCutErrorRatio:
    def test_perfect_cuts_cost_nothing(self, nine_node):
        cfg = SadaConfig(theta=4, max_cond=None)
        trace = []
        run_sada(None, range(9), cfg, make_oracle_solver(nine_node),
                 ExactCiOracle(nine_node), rng=np.random.default_rng(3), trace=trace)
        assert trace
        assert cut_error_ratio(trace, nine_node) == 0.0

    def test_deliberate_split_counts_half(self):
        g = Dag(4, [(0, 1), (2, 3)])
        bad = CausalCut(frozenset({0}), frozenset(), frozenset({1, 2, 3}))
        assert cut_error_ratio([bad], g) == 0.5

    def test_same_edge_severed_twice_counted_once(self):
        g = Dag(4, [(0, 1), (2, 3)])
        bad = CausalCut(frozenset({0}), frozenset(), frozenset({1, 2, 3}))
        worse = CausalCut(frozenset({0, 2}), frozenset(), frozenset({1, 3}))
        assert cut_error_ratio([bad, worse], g) == 1.0

    def test_edgeless_truth(self):
        cut = CausalCut(frozenset({0}), frozenset(), frozenset({1}))
        assert cut_error_ratio([cut], Dag(2, [])) == 0.0


class TestExperimentGrid:
    def test_defaults(self):
        grid = ExperimentGrid()
        assert grid.variable_sizes == (100,)
        assert grid.sample_sizes == (200,)
        assert grid.in_degrees == (1.25,)
        assert grid.noise_weights == (0.3,)
        assert grid.replicates == 20
        assert grid.model == "continuous"

    def test_scalars_coerced(self):
        grid = ExperimentGrid(variable_sizes=50, sample_sizes=[100, 200])
        assert grid.variable_sizes == (50,)
        assert grid.sample_sizes == (100, 200)

    def test_points_enumeration(self):
        grid = ExperimentGrid(variable_sizes=(10, 20), sample_sizes=(100,),
                              in_degrees=(1.0,), noise_weights=(0.3, 0.5))
        points = grid.points()
        assert len(points) == 4
        assert points[0] == (0, 10, 100, 1.0, 0.3)
        assert points[-1] == (3, 20, 100, 1.0, 0.5)

    def test_validation(self):
        with pytest.raises(BenchError):
            ExperimentGrid(model="other")
        with pytest.raises(BenchError):
            ExperimentGrid(replicates=0)
        with pytest.raises(BenchError):
            ExperimentGrid(variable_sizes=())
        with pytest.raises(BenchError):
            ExperimentGrid(sample_sizes=(0,))
        # sizes are counts: a fraction or a bool is refused, not truncated;
        # a bool is no in-degree or noise weight either
        for name, bad in (("variable_sizes", [10.5]), ("sample_sizes", [40.7]),
                          ("variable_sizes", [True]), ("sample_sizes", [200, True]),
                          ("replicates", True), ("in_degrees", [True]),
                          ("noise_weights", [0.3, np.True_]),
                          ("noise_weights", [1.5]), ("noise_weights", [0.3, 1.0001]),
                          # a JSON string, list or null is no number either
                          ("variable_sizes", ["10"]), ("sample_sizes", "200"),
                          ("in_degrees", None), ("noise_weights", [[0.3]]),
                          ("in_degrees", [float("nan")]), ("replicates", "3"),
                          ("replicates", [3]), ("num_states", "3"),
                          # a whole float is no count, as for an id
                          ("variable_sizes", [10.0]), ("sample_sizes", [np.float64(100.0)]),
                          ("replicates", 3.0), ("num_states", 3.0), ("num_states", 2.5),
                          ("num_states", True)):
            with pytest.raises(BenchError, match=name):
                ExperimentGrid(**{name: bad})

    def test_num_states_the_cpt_floor_leaves_no_mass_for(self):
        # draw_random_cpts refuses 20 or more states (CPT_FLOOR * 20 = 1); the
        # grid refuses them up front instead of writing a failed row each
        assert ExperimentGrid(model="discrete", num_states=19).num_states == 19
        for bad in (20, 40, 1):
            with pytest.raises(BenchError, match="num_states"):
                ExperimentGrid(model="discrete", num_states=bad)

    def test_in_degree_above_what_the_graph_can_hold(self):
        # node i of generate_random_dag takes at most i parents, so a mean
        # in-degree of (n - 1) / 2, the complete DAG, is the most it can draw
        assert len(generate_random_dag(10, 9, seed=0).edges) == 45
        ExperimentGrid(variable_sizes=(10, 20), in_degrees=(1.25, 4.5))
        with pytest.raises(BenchError, match=r"in_degrees entry 5.0 .*n=10"):
            ExperimentGrid(variable_sizes=[20, 10], in_degrees=[1.25, 5.0])
        with pytest.raises(BenchError, match=r"in_degrees entry 50 .*n=10"):
            ExperimentGrid(variable_sizes=(10,), in_degrees=(50,))

    def test_discrete_grid_takes_one_noise_weight(self):
        # the weight only shapes continuous data: a discrete grid sweeping
        # it would rerun each point, its rows differing only by seed
        assert ExperimentGrid(model="discrete", noise_weights=(0.9,)).noise_weights == (0.9,)
        ExperimentGrid(model="continuous", noise_weights=(0.1, 0.9))
        with pytest.raises(BenchError, match="noise_weights"):
            ExperimentGrid(model="discrete", noise_weights=[0.1, 0.9])

    def test_from_mapping(self):
        # `sada bench` builds its grid from the JSON object's keys; an unknown
        # key is refused before this (tests/test_cli.py, TestBench)
        grid = ExperimentGrid(**{"variable_sizes": [12], "replicates": 2, "model": "discrete"})
        assert grid.variable_sizes == (12,)
        assert grid.model == "discrete"


SMALL_GRID = dict(variable_sizes=(12,), sample_sizes=(150,), replicates=2)


class TestRunExperiment:
    def test_row_shape(self):
        grid = ExperimentGrid(**{**SMALL_GRID, "replicates": 1})
        rows, summary = run_experiment(grid, SadaConfig(theta=6), seed=11)
        assert len(rows) == 2
        assert [r["method"] for r in rows] == ["sada", "baseline"]
        for row in rows:
            assert set(row) == set(CSV_COLUMNS)
            assert row["error"] == ""
            assert 0.0 <= row["recall"] <= 1.0
        assert rows[0]["cut_error_ratio"] is not None
        assert rows[1]["cut_error_ratio"] is None
        assert len(summary["grid_points"]) == 1

    def test_deterministic_modulo_timing(self):
        grid = ExperimentGrid(**SMALL_GRID)
        cfg = SadaConfig(theta=6)
        rows_a, sum_a = run_experiment(grid, cfg, seed=11)
        rows_b, sum_b = run_experiment(grid, cfg, seed=11)

        def strip(rows):
            return [{k: v for k, v in r.items() if k != "wall_ms"} for r in rows]

        assert strip(rows_a) == strip(rows_b)
        assert (sum_a["grid_points"][0]["subproblems"]
                == sum_b["grid_points"][0]["subproblems"])

    def test_seed_changes_rows(self):
        grid = ExperimentGrid(**SMALL_GRID)
        cfg = SadaConfig(theta=6)
        rows_a, _ = run_experiment(grid, cfg, seed=11)
        rows_b, _ = run_experiment(grid, cfg, seed=12)
        keys = ("recall", "precision", "f1")
        assert [tuple(r[k] for k in keys) for r in rows_a] \
            != [tuple(r[k] for k in keys) for r in rows_b]

    def test_discrete_model_runs(self):
        grid = ExperimentGrid(variable_sizes=(8,), sample_sizes=(600,),
                              model="discrete", replicates=1)
        rows, summary = run_experiment(grid, SadaConfig(theta=5), seed=12)
        assert len(rows) == 2
        assert all(row["error"] == "" for row in rows)
        assert summary["grid_points"][0]["model"] == "discrete"

    def test_discrete_baseline_cleanup_starts_cold(self, monkeypatch):
        # run_sada and the flat baseline's cleanup each get their own G2
        # oracle, so the baseline's timed cleanup computes every verdict
        built, cleaned = [], []

        class CountingOracle(GSquaredOracle):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        cleanup = sada.bench.remove_conflicts_and_redundancy

        def spy(edges, oracle, max_cond):
            cleaned.append((oracle, len(oracle._cache)))
            return cleanup(edges, oracle, max_cond=max_cond)

        monkeypatch.setattr(sada.bench, "GSquaredOracle", CountingOracle)
        monkeypatch.setattr(sada.bench, "remove_conflicts_and_redundancy", spy)
        grid = ExperimentGrid(variable_sizes=(8,), sample_sizes=(600,),
                              model="discrete", replicates=3)
        rows, _ = run_experiment(grid, SadaConfig(theta=5), seed=12)
        assert all(row["error"] == "" for row in rows)
        assert len(built) == 2 * grid.replicates
        assert [oracle for oracle, _ in cleaned] == built[1::2]
        assert [cached for _, cached in cleaned] == [0] * grid.replicates
        assert all(len(oracle._cache) > 0 for oracle in built[0::2])

    def test_scored_single_leaf_result_is_acyclic(self, monkeypatch):
        # n <= theta makes the run one ANM leaf, and this replicate's raw ANM
        # output holds a cycle; bench must score the cleaned edge set that
        # `sada discover` reports, so its edges form a DAG
        scored = []
        real_score = sada.bench.score

        def spy(edges, truth, cuts=None):
            scored.append(edges)
            return real_score(edges, truth, cuts)

        monkeypatch.setattr(sada.bench, "score", spy)
        grid = ExperimentGrid(variable_sizes=(8,), sample_sizes=(600,),
                              model="discrete", replicates=1)
        rows, _ = run_experiment(grid, SadaConfig(theta=10), seed=3)
        assert rows[0]["method"] == "sada" and rows[0]["error"] == ""
        Dag(8, scored[0].pairs())  # the constructor rejects a cycle

    def test_undersampled_baseline_fails_while_split_completes(self):
        # 25 samples cannot fit a 30-variable regression, but the split
        # driver only ever solves small subproblems
        grid = ExperimentGrid(variable_sizes=(30,), sample_sizes=(25,), replicates=1)
        rows, summary = run_experiment(grid, SadaConfig(theta=10), seed=13)
        sada, baseline = rows
        assert sada["error"] == ""
        assert sada["recall"] is not None
        assert "RankDeficientError" in baseline["error"]
        assert baseline["recall"] is None
        stats = summary["grid_points"][0]["methods"]
        assert stats["baseline"]["errors"] == 1
        assert stats["baseline"]["recall"]["mean"] is None

    def test_generation_failure_fills_both_rows(self):
        # one sample cannot be normalized, so neither method gets to run
        grid = ExperimentGrid(variable_sizes=(5,), sample_sizes=(1,), replicates=1)
        rows, summary = run_experiment(grid, SadaConfig(theta=6), seed=1)
        assert [row["method"] for row in rows] == ["sada", "baseline"]
        for row in rows:
            assert row["error"].startswith("SynthError: ")
            assert row["recall"] is None and row["wall_ms"] == 0.0
        point = summary["grid_points"][0]
        assert [point["methods"][m]["errors"] for m in ("sada", "baseline")] == [1, 1]
        assert point["subproblems"] == {}

    def test_failed_split_run_scores_no_leaves(self):
        # at m = 4 the run cuts, then a 5-variable leaf is rank-deficient;
        # the m = 8 point completes, and only its leaves are aggregated
        grid = ExperimentGrid(variable_sizes=(12,), sample_sizes=(4, 8), replicates=1)
        rows, summary = run_experiment(grid, SadaConfig(theta=6), seed=1)
        assert rows[0]["method"] == "sada" and rows[0]["m"] == 4
        assert rows[0]["error"] == "RankDeficientError: m=4 too small for 5 variables"
        assert rows[0]["recall"] is None and rows[0]["wall_ms"] > 0.0
        assert rows[2]["method"] == "sada" and rows[2]["error"] == ""
        failed, done = summary["grid_points"]
        assert failed["methods"]["sada"]["errors"] == 1
        assert failed["subproblems"] == {}
        assert done["methods"]["sada"]["errors"] == 0
        assert sum(s["count"] for s in done["subproblems"].values()) >= 2

    def test_subproblem_aggregates(self):
        grid = ExperimentGrid(**SMALL_GRID)
        _, summary = run_experiment(grid, SadaConfig(theta=6), seed=11)
        subs = summary["grid_points"][0]["subproblems"]
        assert subs
        for size, stats in subs.items():
            assert int(size) >= 2
            assert 0.0 <= stats["recall"] <= 1.0
            assert 0.0 <= stats["precision"] <= 1.0
            assert stats["count"] >= 1

    def test_workers_match_sequential(self):
        grid = ExperimentGrid(**SMALL_GRID)
        cfg = SadaConfig(theta=6)
        rows_seq, _ = run_experiment(grid, cfg, seed=11)
        rows_par, _ = run_experiment(grid, cfg, seed=11, workers=2)

        def strip(rows):
            return [{k: v for k, v in r.items() if k != "wall_ms"} for r in rows]

        assert strip(rows_seq) == strip(rows_par)

    @pytest.mark.parametrize("workers", [0, -3, 2.5, 2.0, True, "2"])
    def test_bad_workers_refused(self, monkeypatch, workers):
        # refused before any replicate runs, not quietly run sequentially
        def no_run(task):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(sada.bench, "_run_replicate", no_run)
        grid = ExperimentGrid(**SMALL_GRID)
        with pytest.raises(BenchError, match="workers"):
            run_experiment(grid, SadaConfig(theta=6), seed=11, workers=workers)

    @pytest.mark.parametrize("seed", [2.5, True, -1, "3"], ids=value_id)
    def test_bad_seed_refused(self, monkeypatch, seed):
        # refused before any replicate runs, not truncated to the seed below
        def no_run(task):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(sada.bench, "_run_replicate", no_run)
        grid = ExperimentGrid(**SMALL_GRID)
        with pytest.raises(BenchError, match="seed"):
            run_experiment(grid, SadaConfig(theta=6), seed=seed)

    def test_numpy_integer_seed_runs(self):
        grid = ExperimentGrid(**{**SMALL_GRID, "replicates": 1})
        rows, summary = run_experiment(grid, SadaConfig(theta=6), seed=np.int64(3))
        want, _ = run_experiment(grid, SadaConfig(theta=6), seed=3)
        assert summary["seed"] == 3 and type(summary["seed"]) is int
        assert [r["recall"] for r in rows] == [r["recall"] for r in want]


class TestOutputFiles:
    def test_csv_roundtrip(self, tmp_path):
        grid = ExperimentGrid(**{**SMALL_GRID, "replicates": 1})
        rows, summary = run_experiment(grid, SadaConfig(theta=6), seed=11)
        csv_path = tmp_path / "rows.csv"
        write_rows_csv(rows, csv_path)
        with open(csv_path) as fh:
            got = list(csv.reader(fh))
        assert got[0] == list(CSV_COLUMNS)
        assert len(got) == 3
        sada_row = got[1]
        assert sada_row[6] == "sada"
        assert float(sada_row[7]) == rows[0]["recall"]
        baseline_row = got[2]
        assert baseline_row[10] == ""  # no cut ratio for the flat solver
        loaded = json.loads(json.dumps(summary))
        assert loaded["grid_points"][0]["methods"]["sada"]["runs"] == 1
