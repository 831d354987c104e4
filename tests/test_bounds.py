import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gammaln

from sada.bounds import (
    BoundsError,
    ErrorModel,
    UndefinedModelError,
    bounds_report,
    conflict_removed_bound,
    cut_error_bound,
    cut_error_posterior,
    expected_cut_error,
    merge_counts,
    merge_delta_threshold,
    merge_gamma_threshold,
    merge_precision_condition,
    min_delta_for_recall,
    redundancy_removed_bound,
)

from oracles import cut_expectation_exact, cut_posterior_exact, mc_cut_error, mc_merge_counts

# reference scale used throughout: 100 variables at average in-degree 1.25
AT_SCALE = dict(n=100, d=1.25, alpha=0.05, beta=0.05)

# small model whose 64 crossing pairs keep exact rational sums tractable
SMALL = dict(n=20, n1=8, n2=8, e=25, alpha=0.05, beta=0.05)

# calibrated false-edge rate for the 0.0404 recall-threshold check
CALIBRATED_R = 0.1

PRECISION_CASE = dict(n=100, P=0.5, r=0.149, e1=56.25, e2=56.25, ec=12.5,
              f1=2823.75, f2=2823.75, fc=77.5)


class TestErrorModel:
    def test_e_derived_from_degree(self):
        m = ErrorModel(**AT_SCALE)
        assert m.e == 125
        assert m.f == 9775

    def test_degree_derived_from_e(self):
        m = ErrorModel(n=20, e=25)
        assert m.d == pytest.approx(1.25)
        assert m.f == 355

    def test_pair_identity_enforced(self):
        with pytest.raises(BoundsError):
            ErrorModel(n=4, e=10, f=5)

    def test_e_exceeding_pairs_rejected(self):
        with pytest.raises(BoundsError):
            ErrorModel(n=3, e=7)

    def test_side_sizes_must_fit(self):
        with pytest.raises(BoundsError):
            ErrorModel(n=10, n1=6, n2=5)
        with pytest.raises(BoundsError, match="nc = 11 exceeds n = 10"):
            ErrorModel(n=10, nc=11)

    @pytest.mark.parametrize("fields, fault", [
        ({"n": 0}, "n must be an integer >= 1"),
        ({"n": 2.5}, "n must be an integer >= 1"),
        ({"n1": 2.5}, "n1 must be an integer"),
        ({"n1": -1}, "n1 must be an integer >= 0"),
        # a whole float is no count either, as for an id
        ({"n": 3.0}, "n must be an integer >= 1"),
        ({"n": np.float64(100.0)}, "n must be an integer >= 1"),
        ({"nc": 2.0}, "nc must be an integer >= 0")])
    def test_bad_counts_refused(self, fields, fault):
        with pytest.raises(BoundsError, match=fault):
            ErrorModel(**{"n": 10, **fields})

    def test_probability_ranges(self):
        with pytest.raises(BoundsError):
            ErrorModel(n=10, alpha=1.5)
        with pytest.raises(BoundsError):
            ErrorModel(n=10, r=-0.1)

    def test_negative_margin_rejected(self):
        with pytest.raises(BoundsError):
            ErrorModel(n=10, delta=-0.01)

    def test_f_without_e_rejected(self):
        with pytest.raises(BoundsError):
            ErrorModel(n=10, f=50)

    @pytest.mark.parametrize("name, bad", [
        ("e1", [1]), ("alpha", "0.5"), ("alpha", True), ("nc", np.True_),
        ("n", None), ("n", "10"), ("d", math.nan), ("delta", math.inf),
        ("e", "25"), ("f", True), ("gamma", "0.1"), ("fc", np.nan)])
    def test_wrong_type_refused(self, name, bad):
        # a value that is no finite real number is refused, naming the field,
        # not coerced ("0.5" to 0.5, True to 1.0) or left to crash a formula
        with pytest.raises(BoundsError, match=name):
            ErrorModel(**{"n": 10, name: bad})


class TestCutErrorPosterior:
    def test_point_mass_without_misses(self):
        m = ErrorModel(**{**SMALL, "beta": 0.0})
        assert cut_error_posterior(m, 0) == 1.0
        assert cut_error_posterior(m, 3) == 0.0

    def test_normalization(self):
        m = ErrorModel(**SMALL)
        total = sum(cut_error_posterior(m, i) for i in range(65))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_matches_exact_rational_summation(self):
        m = ErrorModel(**SMALL)
        for i in (0, 1, 2, 5):
            want = float(cut_posterior_exact(64, i, 25, 355, Fraction(1, 20), Fraction(1, 20)))
            assert cut_error_posterior(m, i) == pytest.approx(want, rel=1e-12)

    def test_frozen_values(self):
        m = ErrorModel(**SMALL)
        assert cut_error_posterior(m, 0) == pytest.approx(0.78916944269495182, rel=1e-12)
        assert cut_error_posterior(m, 1) == pytest.approx(0.18720105386388775, rel=1e-12)

    def test_count_out_of_range(self):
        m = ErrorModel(**SMALL)
        # a bool or a float is no count: True is not read as i = 1
        for bad in (65, -1, True, 1.0, math.nan, "1"):
            with pytest.raises(BoundsError, match=r"i must be an integer in \[0, 64\]"):
                cut_error_posterior(m, bad)
        assert cut_error_posterior(m, np.int64(1)) == cut_error_posterior(m, 1)

    def test_degenerate_models_rejected(self):
        full = ErrorModel(n=20, e=380, n1=8, n2=8)  # f = 0
        with pytest.raises(UndefinedModelError):
            cut_error_posterior(full, 0)
        certain = ErrorModel(**{**SMALL, "alpha": 1.0})
        with pytest.raises(UndefinedModelError):
            cut_error_posterior(certain, 0)

    def test_missing_sides_reported(self):
        with pytest.raises(UndefinedModelError):
            cut_error_posterior(ErrorModel(n=20, e=25), 0)


class TestGammalnReference:
    """The posterior's log binomial coefficient comes from math.lgamma; this
    pins both posterior functions to scipy.special.gammaln within 1e-12."""

    @pytest.mark.parametrize("fields", [
        SMALL,
        dict(n=80, e=200, n1=30, n2=30, alpha=0.05, beta=0.1),
        dict(n=200, d=2.0, n1=40, n2=40, alpha=0.2, beta=0.3),
    ])
    def test_posterior_and_expectation(self, fields):
        m = ErrorModel(**fields)
        total = m.n1 * m.n2
        rho = m.e * m.beta / (m.f * (1.0 - m.alpha))
        i = np.arange(total + 1)
        log_choose = gammaln(total + 1) - gammaln(i + 1) - gammaln(total - i + 1)
        want = np.exp(log_choose + i * math.log(rho) - total * math.log1p(rho))
        got = [cut_error_posterior(m, j) for j in range(total + 1)]
        assert got == pytest.approx(want.tolist(), rel=0, abs=1e-12)
        assert expected_cut_error(m) == pytest.approx(math.fsum(i * want), rel=1e-12)


class TestExpectedCutError:
    def test_matches_exact_rational_summation(self):
        m = ErrorModel(**SMALL)
        want = float(cut_expectation_exact(64, 25, 355, Fraction(1, 20), Fraction(1, 20)))
        assert expected_cut_error(m) == pytest.approx(want, rel=1e-12)
        assert expected_cut_error(m) == pytest.approx(0.2363367799113737, rel=1e-12)

    def test_zero_without_misses(self):
        assert expected_cut_error(ErrorModel(**{**SMALL, "beta": 0.0})) == 0.0

    def test_matches_summed_posterior(self):
        m = ErrorModel(n=80, e=200, n1=30, n2=30, alpha=0.05, beta=0.1)
        want = math.fsum(i * cut_error_posterior(m, i) for i in range(30 * 30 + 1))
        assert expected_cut_error(m) == pytest.approx(want, rel=1e-12)

    def test_large_sides_take_constant_memory(self):
        # 4e6 crossing pairs: no array of posterior terms is built
        m = ErrorModel(n=8000, d=2.0, n1=2000, n2=2000)
        tracemalloc.start()
        try:
            got = expected_cut_error(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert 0 < got < cut_error_bound(m)

    def test_never_exceeds_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(4, 40))
            pairs = n * n - n
            e = int(rng.integers(1, pairs))
            n1 = int(rng.integers(1, n))
            n2 = int(rng.integers(1, n - n1 + 1))
            m = ErrorModel(n=n, e=e, n1=n1, n2=n2,
                           alpha=float(rng.uniform(0, 0.5)),
                           beta=float(rng.uniform(0, 0.5)))
            assert expected_cut_error(m) <= cut_error_bound(m)

    def test_matches_monte_carlo(self):
        # rejection-sampled desk check; the acceptance suite runs 1e5 trials
        m = ErrorModel(n=20, e=25, n1=3, n2=3)
        mean, se = mc_cut_error(9, 25, 355, 0.05, 0.05, 20_000,
                                np.random.default_rng(81), batch=100_000)
        assert abs(expected_cut_error(m) - mean) <= 3 * se


class TestCutErrorBound:
    def test_reference_value(self):
        assert cut_error_bound(ErrorModel(**AT_SCALE)) == 3

    def test_floor_without_misses(self):
        assert cut_error_bound(ErrorModel(**{**AT_SCALE, "beta": 0.0})) == 1

    def test_degenerate_models_rejected(self):
        with pytest.raises(UndefinedModelError):
            cut_error_bound(ErrorModel(n=20, e=380))
        with pytest.raises(UndefinedModelError, match="alpha = 1"):
            cut_error_bound(ErrorModel(**{**AT_SCALE, "alpha": 1.0}))


class TestMergeCounts:
    def test_perfect_recall_no_noise(self):
        m = replace(ErrorModel(n=100), e1=50, e2=40, ec=10, f1=100, f2=90, fc=20)
        e_m, f_m = merge_counts(m, R1=1.0, R2=1.0, r1=0.0, r2=0.0)
        assert e_m == 100
        assert f_m == 0

    def test_zero_recall(self):
        m = replace(ErrorModel(n=100), e1=50, e2=40, ec=10, f1=1, f2=1, fc=1)
        e_m, _ = merge_counts(m, R1=0.0, R2=0.0, r1=0.0, r2=0.0)
        assert e_m == 0

    def test_model_fields_fill_in(self):
        m = ErrorModel(**PRECISION_CASE, R=0.9)
        e_m, f_m = merge_counts(m)
        direct = merge_counts(m, R1=0.9, R2=0.9, r1=0.149, r2=0.149)
        assert (e_m, f_m) == direct
        # a per-side rate takes the probability rule of the model's fields
        for bad in ("0.5", True, math.nan, 1.5, -0.1):
            for name in ("R1", "R2", "r1", "r2"):
                with pytest.raises(BoundsError, match=f"{name} must be a real number in"):
                    merge_counts(m, **{name: bad})

    def test_missing_inputs_reported(self):
        with pytest.raises(UndefinedModelError):
            merge_counts(ErrorModel(n=100))

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(4)
        m = replace(ErrorModel(n=100), e1=30, e2=25, ec=8, f1=60, f2=50, fc=12)
        e_m, f_m = merge_counts(m, R1=0.8, R2=0.6, r1=0.1, r2=0.2)
        (me, se_e), (mf, se_f) = mc_merge_counts(
            30, 25, 8, 60, 50, 12, 0.8, 0.6, 0.1, 0.2, 20_000, rng)
        assert abs(e_m - me) <= 3 * se_e
        assert abs(f_m - mf) <= 3 * se_f


class TestMergePrecisionCondition:
    def test_probe_thresholds(self):
        m = ErrorModel(**PRECISION_CASE)
        assert merge_delta_threshold(m) == pytest.approx(0.078615379999999999, rel=1e-12)
        assert merge_gamma_threshold(m) == pytest.approx(0.0019900904782421372, rel=1e-12)

    def test_reference_margins_accepted(self):
        by_delta = ErrorModel(**PRECISION_CASE, delta=0.08, gamma=0.0)
        assert merge_precision_condition(by_delta)
        by_gamma = ErrorModel(**PRECISION_CASE, delta=0.0, gamma=0.002)
        assert merge_precision_condition(by_gamma)

    def test_both_margins_below_reject(self):
        m = ErrorModel(**PRECISION_CASE, delta=0.07, gamma=0.0019)
        assert not merge_precision_condition(m)

    def test_perfect_precision_divides_by_zero(self):
        m = ErrorModel(**{**PRECISION_CASE, "P": 1.0}, delta=0.5, gamma=0.5)
        with pytest.raises(UndefinedModelError):
            merge_precision_condition(m)

    def test_zero_counts_divide_by_zero(self):
        no_true = ErrorModel(**{**PRECISION_CASE, "e1": 0, "e2": 0, "ec": 0})
        with pytest.raises(UndefinedModelError, match="e1 \\+ e2 \\+ ec = 0"):
            merge_delta_threshold(no_true)
        no_false = ErrorModel(**{**PRECISION_CASE, "f1": 0, "f2": 0, "fc": 0})
        with pytest.raises(UndefinedModelError, match="f1 \\+ f2 \\+ 2\\*fc = 0"):
            merge_gamma_threshold(no_false)


class TestRemovalBounds:
    def test_vanish_with_their_rates(self):
        base = dict(n=100, d=1.25, nc=10, r=0.01)
        assert conflict_removed_bound(ErrorModel(**base, epsilon=0.0)) == 0.0
        assert redundancy_removed_bound(ErrorModel(**base, beta=0.0)) == 0.0

    def test_conflict_bound_cross_check(self):
        m = ErrorModel(n=100, d=1.25, nc=10, r=0.01, epsilon=0.05)
        assert conflict_removed_bound(m) == pytest.approx(0.12639387498053528, rel=1e-12)

    def test_redundancy_bound_cross_check(self):
        m = ErrorModel(n=100, d=1.25, nc=10, r=0.01, beta=0.05)
        assert redundancy_removed_bound(m) == pytest.approx(0.12639387498053528, rel=1e-12)


class TestMinDeltaForRecall:
    def test_reference_value_with_calibrated_rate(self):
        m = ErrorModel(**AT_SCALE, epsilon=0.05, nc=10, r=CALIBRATED_R)
        got = min_delta_for_recall(m)
        assert got == pytest.approx(0.040422301999688562, rel=1e-12)
        assert abs(got - 0.0404) <= 5e-4

    def test_only_ceiling_survives_without_error_rates(self):
        m = ErrorModel(**{**AT_SCALE, "beta": 0.0}, epsilon=0.0, nc=10, r=CALIBRATED_R)
        assert min_delta_for_recall(m) == pytest.approx(1 / 125, rel=1e-12)

    def test_edgeless_model_rejected(self):
        m = ErrorModel(n=100, e=0, nc=10, r=0.1, epsilon=0.05)
        with pytest.raises(UndefinedModelError):
            min_delta_for_recall(m)

    def test_monotone_in_degree_and_cut_size(self):
        # the degree field moves only the path-count growth term here
        degrees = [0.75, 1.0, 1.25, 1.5, 1.75]
        values = [min_delta_for_recall(
            ErrorModel(n=100, e=125, d=d, epsilon=0.05, nc=10, r=CALIBRATED_R))
            for d in degrees]
        assert all(a < b for a, b in zip(values, values[1:]))
        sizes = [5, 8, 11, 14, 17, 20]
        values = [min_delta_for_recall(
            ErrorModel(**AT_SCALE, epsilon=0.05, nc=nc, r=CALIBRATED_R))
            for nc in sizes]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestReport:
    def test_full_model_reports_everything(self):
        m = ErrorModel(**AT_SCALE, n1=45, n2=45, nc=10, r=CALIBRATED_R,
                       epsilon=0.05, P=0.5, delta=0.08, gamma=0.002,
                       e1=56.25, e2=56.25, ec=12.5,
                       f1=2823.75, f2=2823.75, fc=77.5, R=0.9)
        report = bounds_report(m)
        assert report["cut_error_bound"] == 3
        assert report["merge_precision_condition"] is True
        assert "expected_true_edges_after_merge" in report

    def test_sparse_model_reports_subset(self):
        report = bounds_report(ErrorModel(**AT_SCALE))
        assert report["cut_error_bound"] == 3
        assert "min_delta_for_recall" not in report
