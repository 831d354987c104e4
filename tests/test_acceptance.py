"""Acceptance gate: one test per shipped guarantee, each printing a
single PASS line with its measured numbers. Budgets are generous on
purpose; every run below is seeded and deterministic."""

import dataclasses
import time

import numpy as np
import pytest

from sada.bench import ExperimentGrid, run_experiment
from sada.bounds import (
    ErrorModel,
    cut_error_bound,
    expected_cut_error,
    merge_counts,
    merge_delta_threshold,
    merge_gamma_threshold,
    merge_precision_condition,
    min_delta_for_recall,
)
from sada.citest import ExactCiOracle
from sada.framework import SadaConfig, _grow_from_seed, find_causal_cut, run_sada
from sada.graph import generate_random_dag
from sada.solvers import make_oracle_solver

from conftest import bits
from oracles import mc_cut_error, mc_merge_counts
from property_suites import (
    check_ci_size,
    check_dsep_exhaustive,
    check_merge_invariants,
    check_normalization,
)


@pytest.fixture(scope="module")
def continuous_sweep():
    """Defaults grid, 20 replicates, shared by the cut-error and the
    continuous directional criteria."""
    t0 = time.perf_counter()
    rows, summary = run_experiment(ExperimentGrid(), SadaConfig(theta=10),
                                   seed=2026)
    return rows, summary, time.perf_counter() - t0


def test_criterion_1_oracle_recovery_is_exact():
    # 100 random DAGs spanning n in {10,30,50} x d in {0.75,1.0,1.25};
    # exact independence oracle + true-subgraph solver must recover the
    # full structure every single time
    sizes = (10, 30, 50)
    degrees = (0.75, 1.0, 1.25)
    t0 = time.perf_counter()
    for i in range(100):
        n = sizes[i % 3]
        d = degrees[(i // 3) % 3]
        g = generate_random_dag(n, d, seed=1000 + i)
        cfg = SadaConfig(theta=10, max_cond=None)
        edges = run_sada(None, range(n), cfg, make_oracle_solver(g),
                         ExactCiOracle(g), rng=np.random.default_rng(i))
        assert edges.pairs() == g.edges, f"run {i} (n={n}, d={d}) not exact"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    print(f"\n[criterion 1] PASS: 100/100 exact recoveries in {elapsed:.1f}s")


def test_criterion_2_cut_quality_probability():
    # max in-degree 2 (d=1.5 draws 1 or 2 parents per node), n=60,
    # k=(2*2+2)^2=36 restarts: at least half the seeds must yield a cut
    # with min side >= 60/6 = 10
    cfg = SadaConfig(theta=10, k=36, max_cond=None)
    t0 = time.perf_counter()
    good = 0
    for seed in range(200):
        g = generate_random_dag(60, 1.5, seed=seed)
        assert max(len(g.parents(v)) for v in range(60)) <= 2
        cut = find_causal_cut(ExactCiOracle(g), range(60), cfg,
                              rng=np.random.default_rng(seed))
        if cut is not None and min(len(cut.left), len(cut.right)) >= 10:
            good += 1
    elapsed = time.perf_counter() - t0
    fraction = good / 200
    assert fraction >= 0.5
    assert elapsed < 300
    print(f"\n[criterion 2] PASS: min-side>=10 on {fraction:.3f} "
          f"of 200 seeds in {elapsed:.1f}s")


def test_criterion_3_nine_node_reference_split(nine_node):
    # the reference trace on the nine-node fragment: seed pair (0, 1),
    # ascending check order
    oracle = ExactCiOracle(nine_node)
    sep = oracle.find_separator(0, 1, bits(range(2, 9)), None)
    assert sep == frozenset()
    v1, cut, v2 = _grow_from_seed(oracle, list(range(9)), 0, 1, sep, None)
    assert v1 == {0, 2, 5}
    assert cut == {3, 6, 7}
    assert v2 == {1, 4, 8}
    print("\n[criterion 3] PASS: replayed split "
          "V1={0,2,5} C={3,6,7} V2={1,4,8}")


def test_criterion_4_reference_bound_numbers():
    at_scale = ErrorModel(n=100, d=1.25, alpha=0.05, beta=0.05)
    assert cut_error_bound(at_scale) == 3

    # r calibrated so the recall threshold lands inside 0.0404 +/- 0.0005
    sweep = ErrorModel(n=100, d=1.25, alpha=0.05, beta=0.05, epsilon=0.05,
                       nc=10, r=0.1)
    delta = min_delta_for_recall(sweep)
    assert delta == pytest.approx(0.0404, abs=5e-4)

    case = ErrorModel(n=100, P=0.5, r=0.149, e1=56.25, e2=56.25, ec=12.5,
                       f1=2823.75, f2=2823.75, fc=77.5)
    assert merge_delta_threshold(case) < 0.08
    assert merge_gamma_threshold(case) < 0.002
    assert merge_precision_condition(dataclasses.replace(case, delta=0.08))
    assert merge_precision_condition(
        dataclasses.replace(case, delta=0.0, gamma=0.002))
    print(f"\n[criterion 4] PASS: bound=3, min_delta={delta:.6f}, "
          "precision condition accepts delta=0.08 and gamma=0.002")


def test_criterion_5_bounds_match_monte_carlo():
    t0 = time.perf_counter()
    trials = 100_000
    cut_settings = [
        dict(n=20, n1=3, n2=3, e=25, alpha=0.05, beta=0.05),
        dict(n=16, n1=3, n2=2, e=30, alpha=0.1, beta=0.2),
        dict(n=12, n1=2, n2=2, e=20, alpha=0.02, beta=0.1),
    ]
    worst = 0.0
    for i, kw in enumerate(cut_settings):
        model = ErrorModel(**kw)
        want = expected_cut_error(model)
        mean, se = mc_cut_error(kw["n1"] * kw["n2"], model.e, model.f,
                                kw["alpha"], kw["beta"], trials,
                                np.random.default_rng(500 + i))
        dev = abs(want - mean) / se
        assert dev <= 3.0, f"cut setting {i}: {dev:.2f} standard errors off"
        worst = max(worst, dev)

    merge_settings = [
        (30, 25, 8, 60, 50, 12, 0.8, 0.6, 0.1, 0.2),
        (10, 40, 5, 90, 20, 30, 0.9, 0.7, 0.05, 0.15),
        (50, 50, 20, 100, 100, 40, 0.5, 0.5, 0.3, 0.3),
    ]
    dummy = ErrorModel(n=50, e=0)
    for i, s in enumerate(merge_settings):
        e1, e2, ec, f1, f2, fc, R1, R2, r1, r2 = s
        model = dataclasses.replace(dummy, e1=e1, e2=e2, ec=ec, f1=f1, f2=f2, fc=fc)
        em, fm = merge_counts(model, R1=R1, R2=R2, r1=r1, r2=r2)
        (me, see), (mf, sef) = mc_merge_counts(e1, e2, ec, f1, f2, fc,
                                               R1, R2, r1, r2, trials,
                                               np.random.default_rng(600 + i))
        dev = max(abs(em - me) / see, abs(fm - mf) / sef)
        assert dev <= 3.0, f"merge setting {i}: {dev:.2f} standard errors off"
        worst = max(worst, dev)
    elapsed = time.perf_counter() - t0
    assert elapsed < 180
    print(f"\n[criterion 5] PASS: 6 settings at {trials} trials, "
          f"worst deviation {worst:.2f} standard errors, {elapsed:.1f}s")


def test_criterion_6_cut_error_ratio_at_m_2n(continuous_sweep):
    rows, _, elapsed = continuous_sweep
    ratios = [r["cut_error_ratio"] for r in rows
              if r["method"] == "sada" and r["cut_error_ratio"] is not None]
    assert len(ratios) == 20
    mean_ratio = float(np.mean(ratios))
    assert mean_ratio <= 0.12
    assert elapsed < 600
    print(f"\n[criterion 6] PASS: mean cut error ratio {mean_ratio:.4f} "
          f"(max {max(ratios):.4f}) over 20 replicates in {elapsed:.1f}s")


def test_criterion_7_beats_full_problem_baseline(continuous_sweep):
    _, summary, sweep_elapsed = continuous_sweep
    stats = summary["grid_points"][0]["methods"]
    assert stats["sada"]["errors"] == 0
    sada_f1 = stats["sada"]["f1"]["mean"]
    base_f1 = stats["baseline"]["f1"]["mean"]
    assert sada_f1 > base_f1

    t0 = time.perf_counter()
    _, dsummary = run_experiment(ExperimentGrid(model="discrete"),
                                 SadaConfig(theta=10), seed=2026)
    delapsed = time.perf_counter() - t0
    dstats = dsummary["grid_points"][0]["methods"]
    assert dstats["sada"]["errors"] == 0
    sada_prec = dstats["sada"]["precision"]["mean"]
    base_prec = dstats["baseline"]["precision"]["mean"]
    assert sada_prec >= base_prec
    assert sweep_elapsed + delapsed < 1800
    print(f"\n[criterion 7] PASS: continuous F1 {sada_f1:.3f} > {base_f1:.3f}; "
          f"discrete precision {sada_prec:.3f} >= {base_prec:.3f} "
          f"in {sweep_elapsed + delapsed:.1f}s")


def test_criterion_8_property_suites():
    t0 = time.perf_counter()
    dsep_cases = check_dsep_exhaustive()
    ci_cases = check_ci_size()
    merge_cases = check_merge_invariants(num_cases=10_000)
    norm_cases = check_normalization()
    elapsed = time.perf_counter() - t0
    assert merge_cases >= 10_000
    assert elapsed < 300
    print(f"\n[criterion 8] PASS: d-separation {dsep_cases} cases, "
          f"test size {ci_cases} queries, merge {merge_cases} cases, "
          f"normalization {norm_cases} graphs, {elapsed:.1f}s")
