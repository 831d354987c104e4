import dataclasses
import enum
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import sada.citest
import sada.solvers

from sada.graph import Dag, GraphError, bit_ids, checked_ids, generate_random_dag
from sada.solvers import solve_lingam
from sada.synth import SampleMatrix, SynthError, generate_discrete, generate_linear_nongaussian, sample_from_cpts
from sada.citest import (
    CiError,
    CiVerdict,
    ExactCiOracle,
    G2Kernel,
    GSquaredOracle,
    InsufficientSamplesError,
    PartialCorrelationOracle,
    SingularConditioningError,
    UnreliableTestError,
    chi2_sf,
    two_sided_normal_sf,
)

from conftest import TableOracle, bits, random_small_dags, relabelled, value_id
from oracles import (
    checked_ids_reference,
    checked_search_reference,
    exists_separator_brute,
    g2_from_tables_reference,
    partial_corr_reference,
    per_member_exact_oracle,
)

CHAIN = Dag(3, [(0, 1), (1, 2)])
VSTRUCT = Dag(3, [(0, 2), (1, 2)])


def _copy_chain_cpts(k=3, peak=0.9):
    root = np.full((1, k), 1.0 / k)
    copy = np.full((k, k), (1 - peak) / (k - 1))
    np.fill_diagonal(copy, peak)
    return {0: root, 1: copy, 2: copy}


class TestPartialCorrelation:
    def test_identical_columns_dependent(self):
        rng = np.random.default_rng(1)
        x = rng.random(200)
        data = SampleMatrix(np.column_stack([x, x.copy()]), "continuous")
        v = PartialCorrelationOracle(data).query(0, 1)
        assert not v.independent
        assert v.p_value < 1e-12

    def test_independent_pair_acceptance_rate(self):
        hits = 0
        for s in range(100):
            rng = np.random.default_rng(s)
            data = SampleMatrix(rng.random((2000, 2)), "continuous")
            if PartialCorrelationOracle(data).query(0, 1).independent:
                hits += 1
        assert hits >= 90

    def test_chain_verdicts_rate(self):
        hits = 0
        for s in range(100):
            sm = generate_linear_nongaussian(CHAIN, m=2000, noise_weight=0.3, seed=s)
            o = PartialCorrelationOracle(sm)
            if (not o.query(0, 2).independent) and o.query(0, 2, (1,)).independent:
                hits += 1
        assert hits >= 90

    def test_size_calibration_thousand_queries(self):
        # false-dependence rate on truly independent columns stays near alpha
        rng = np.random.default_rng(7)
        data = SampleMatrix(rng.random((2000, 46)), "continuous")
        o = PartialCorrelationOracle(data)
        pairs = list(itertools.combinations(range(46), 2))[:1000]
        false_dep = 0
        for i, (u, v) in enumerate(pairs):
            z = () if i % 2 == 0 else ((u + v) % 46 if (u + v) % 46 not in (u, v) else (u + 7) % 46,)
            if not o.query(u, v, z).independent:
                false_dep += 1
        assert false_dep / 1000 <= o.alpha_level + 0.03

    def test_symmetric_in_pair(self):
        g = generate_random_dag(8, 1.5, seed=2)
        sm = generate_linear_nongaussian(g, m=300, seed=3)
        o = PartialCorrelationOracle(sm)
        for u, v, z in [(0, 5, ()), (2, 7, (1,)), (3, 6, (0, 4))]:
            # the repeat is the cached verdict
            assert o.query(u, v, z) is o.query(v, u, z[::-1])

    def test_insufficient_samples(self):
        data = SampleMatrix(np.random.default_rng(0).random((5, 4)), "continuous")
        o = PartialCorrelationOracle(data)
        with pytest.raises(InsufficientSamplesError):
            o.query(0, 1, (2, 3))

    def test_singular_conditioning(self):
        # columns 2 to 4 repeat x exactly, or up to rounding (3x, x + 1):
        # every conditioning set holding two of them, or x and one of them,
        # is collinear, at any |z|
        rng = np.random.default_rng(0)
        x, y, w, t = rng.random((4, 500))
        data = SampleMatrix(np.column_stack([x, y, x.copy(), 3 * x, x + 1, w, t]), "continuous")
        o = PartialCorrelationOracle(data)
        for u, v, z in [(0, 1, (2,)), (1, 5, (0, 3)), (1, 5, (3, 4)), (5, 6, (0, 4)),
                        (1, 5, (0, 3, 6)), (1, 5, (2, 4, 6)), (1, 6, (0, 2, 3)),
                        (1, 6, (0, 3, 4, 5))]:
            with pytest.raises(SingularConditioningError):
                o.query(u, v, z)
        # a correlation that is not finite has no verdict: the marginal
        # query meets the check on r itself. SampleMatrix refuses the
        # columns that would give one, so the entry is set by hand
        o = PartialCorrelationOracle(SampleMatrix(np.column_stack([x, y]), "continuous"))
        o._corr[0][1] = o._corr[1][0] = float("nan")
        with pytest.raises(SingularConditioningError, match="not identifiable"):
            o.query(0, 1)

    def test_constant_column(self):
        # the std of a column of 0.1 or 0.7 is about 1e-17, not 0, so only
        # max == min finds every constant column
        x = np.random.default_rng(0).random((60, 6))
        for value, col in itertools.product((1.0, 0.1, 0.7, 0.001, 123.456), (0, 2, 5)):
            data = x.copy()
            data[:, col] = value
            o = PartialCorrelationOracle(SampleMatrix(data, "continuous"))
            a, b, c, d, _ = (w for w in range(6) if w != col)
            for u, v, z in [(col, a, ()), (a, col, (b,)), (a, b, (col,)), (b, c, (d, col))]:
                with pytest.raises(SingularConditioningError):
                    o.query(u, v, z)
            o.query(a, b, (c,))

    def test_overflowing_columns_are_refused(self):
        # at 1e200 a sum of 50 squared deviations overflows, so a dependent
        # pair's correlation would come out as 0 and read as independent:
        # the sample matrix refuses the column, naming it. At 1e100 the sums
        # stay finite, the dependence is found and LiNGAM runs, with no
        # overflow warning, which the suite turns into a failure.
        rng = np.random.default_rng(7)
        x, y = rng.standard_normal((2, 50))
        w = x + 0.01 * rng.standard_normal(50)
        with pytest.raises(SynthError, match="column 0 holds a non-finite value or one above"):
            SampleMatrix(np.column_stack([x * 1e200, y * 1e200, w]), "continuous")
        data = SampleMatrix(np.column_stack([x * 1e100, y * 1e100, w]), "continuous")
        o = PartialCorrelationOracle(data)
        assert not o.query(0, 2).independent
        assert o.query(1, 2).p_value < 1.0
        solve_lingam(data, [0, 1, 2])

    def test_underflowing_columns_are_refused(self):
        # at 1e-170 a column's squared deviations underflow while its cross
        # terms with another column do not, so its correlations would come
        # out as +-1 and read as dependence on every column: the sample
        # matrix refuses it, naming it. At 1e-150 its variance stays in the
        # normal range and every verdict is the unscaled column's. A
        # constant column that small is left to the constant-column check
        rng = np.random.default_rng(7)
        x, y = rng.standard_normal((2, 50))
        w = x + 0.3 * rng.standard_normal(50)
        with pytest.raises(SynthError, match="column 1 deviates from its mean by at most"):
            SampleMatrix(np.column_stack([y, x * 1e-170, w]), "continuous")
        SampleMatrix(np.column_stack([y, np.full(50, 1e-170), w]), "continuous")
        plain, tiny = (PartialCorrelationOracle(SampleMatrix(np.column_stack([s * x, y, w]),
                                                             "continuous"))
                       for s in (1.0, 1e-150))
        verdicts = []
        for u, v, z in [(0, 1, ()), (0, 2, ()), (1, 2, ()), (0, 1, (2,)), (0, 2, (1,)),
                        (1, 2, (0,))]:
            verdicts.append(plain.query(u, v, z).independent)
            assert tiny.query(u, v, z).independent == verdicts[-1], (u, v, z)
        assert True in verdicts and False in verdicts

    def test_verdict_is_a_frozen_value_with_slots(self):
        v = CiVerdict(True, 0.5)
        assert not hasattr(v, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            v.p_value = 0.1
        assert v == CiVerdict(True, 0.5) and v != CiVerdict(False, 0.5)
        assert hash(v) == hash(CiVerdict(True, 0.5))
        assert len({v, CiVerdict(True, 0.5), CiVerdict(True, 0.25)}) == 2

    def test_validation(self):
        data = SampleMatrix(np.random.default_rng(0).random((50, 3)), "continuous")
        o = PartialCorrelationOracle(data)
        with pytest.raises(CiError):
            o.query(0, 0)
        with pytest.raises(CiError):
            o.query(0, 1, (1,))
        with pytest.raises(CiError):
            o.query(0, 9)
        # a non-real level or a bool is refused like an out-of-range one,
        # naming the field, by the rule SadaConfig applies
        disc = SampleMatrix(np.zeros((10, 2), dtype=np.int64), "discrete", num_states=2)
        for bad in (1.5, 0.0, 1.0, float("nan"), "0.05", None, True, 0.05j):
            with pytest.raises(CiError, match="alpha_level"):
                PartialCorrelationOracle(data, alpha_level=bad)
            with pytest.raises(CiError, match="alpha_level"):
                GSquaredOracle(disc, alpha_level=bad)
        assert PartialCorrelationOracle(data, alpha_level=np.float32(0.25)).alpha_level == 0.25
        with pytest.raises(CiError):
            PartialCorrelationOracle(disc)


def _one_shot_outcome(o, u, v, zt):
    """What the Fisher-z test of o gives for u < v and a nonempty sorted zt
    with the one-shot elimination: the p-value as float.hex, or the type and
    message of the refusal."""
    try:
        r = partial_corr_reference(o._corr, u, v, zt)
        if not math.isfinite(r) or abs(r) > 1 + 1e-6:
            raise SingularConditioningError("partial correlation is not identifiable")
        r = min(max(r, -1 + 1e-15), 1 - 1e-15)
        return two_sided_normal_sf(math.sqrt(o._m - len(zt) - 3) * math.atanh(r)).hex()
    except CiError as exc:
        return type(exc), str(exc)


def _p_value_outcome(o, u, v, zt):
    """The same from o's own `_p_value`, which keeps its last prefix."""
    try:
        return o._p_value(u, v, zt).hex()
    except CiError as exc:
        return type(exc), str(exc)


class TestFisherZPrefixReuse:
    """The Fisher-z oracle eliminates each scan prefix once and extends it
    by the last id; every p-value and refusal stays bit for bit that of the
    one-shot elimination, whether the held prefix matches or not."""

    @staticmethod
    def _scan_queries(n, pairs, max_size, rng):
        """The subsets `_scan` issues for each pair, in its order, over a
        random ascending pool of the other ids."""
        out = []
        for u, v in pairs:
            rest = [w for w in range(n) if w not in (u, v)]
            pool = sorted(rng.choice(rest, size=min(len(rest), 9), replace=False).tolist())
            out += [(u, v, sub) for size in range(1, max_size + 1)
                    for sub in itertools.combinations(pool, size)]
        return out

    def _assert_identical(self, o, queries, rng):
        outcomes = []
        for order in (queries, [queries[i] for i in rng.permutation(len(queries))]):
            for u, v, zt in order:
                got = _p_value_outcome(o, u, v, zt)
                assert got == _one_shot_outcome(o, u, v, zt), (u, v, zt)
                outcomes.append(got)
        return outcomes

    def test_scans_and_shuffles_match_the_one_shot_elimination(self):
        rng = np.random.default_rng(11)
        g = generate_random_dag(14, 1.5, seed=4)
        o = PartialCorrelationOracle(generate_linear_nongaussian(g, m=60, seed=5))
        pairs = [(0, 13), (2, 5), (3, 4), (7, 11)]
        outcomes = self._assert_identical(o, self._scan_queries(14, pairs, 4, rng), rng)
        assert all(type(p) is str for p in outcomes)

    def test_deep_conditioning_sets(self):
        # |z| from 4 to 20, lexicographic runs and shuffled, at m = 60
        rng = np.random.default_rng(12)
        g = generate_random_dag(24, 2.0, seed=6)
        o = PartialCorrelationOracle(generate_linear_nongaussian(g, m=60, seed=7))
        queries = []
        for size in range(4, 21):
            u, v = sorted(rng.choice(24, size=2, replace=False).tolist())
            rest = [w for w in range(24) if w not in (u, v)]
            pool = sorted(rng.choice(rest, size=size + 2, replace=False).tolist())
            queries += [(u, v, sub) for sub in itertools.combinations(pool, size)][:40]
        outcomes = self._assert_identical(o, queries, rng)
        assert {len(z) for _, _, z in queries} == set(range(4, 21))
        assert any(type(p) is str for p in outcomes)

    def test_collinear_columns(self):
        # the matrix of test_singular_conditioning: columns 2 to 4 repeat x
        # up to rounding, so some prefixes are singular and, past a regular
        # prefix, some last pivots
        rng = np.random.default_rng(0)
        x, y, w, t = rng.random((4, 500))
        data = SampleMatrix(np.column_stack([x, y, x.copy(), 3 * x, x + 1, w, t]), "continuous")
        o = PartialCorrelationOracle(data)
        queries = [(u, v, sub) for u, v in itertools.combinations(range(7), 2)
                   for size in range(1, 6)
                   for sub in itertools.combinations([w for w in range(7) if w not in (u, v)],
                                                     size)]
        outcomes = self._assert_identical(o, queries, rng)
        refused = [(u, v, zt) for (u, v, zt), got in zip(queries, outcomes) if type(got) is tuple]
        singular_prefix = [type(_one_shot_outcome(o, u, v, zt[:-1])) is tuple
                           for u, v, zt in refused if len(zt) > 1]
        assert True in singular_prefix and False in singular_prefix
        assert any(type(got) is str for got in outcomes)

    def test_the_held_prefix_is_one_entry(self):
        o = PartialCorrelationOracle(generate_linear_nongaussian(CHAIN, m=100, seed=1))
        assert o._prefix == (None, None)
        o.query(0, 2, (1,))
        assert o._prefix[0] == (0, 2, ())
        o.query(1, 2)
        assert o._prefix[0] == (0, 2, ())


class TestGSquared:
    def test_edgeless_acceptance_rate(self):
        g = Dag(5)
        accept = total = 0
        for s in range(40):
            o = GSquaredOracle(generate_discrete(g, m=2000, seed=s))
            for u, v in itertools.combinations(range(5), 2):
                total += 1
                accept += o.query(u, v).independent
        assert accept / total >= 0.90

    def test_v_structure_rates(self):
        marg = cond = 0
        for s in range(100):
            o = GSquaredOracle(generate_discrete(VSTRUCT, m=2000, seed=s))
            marg += o.query(0, 1).independent
            cond += not o.query(0, 1, (2,)).independent
        assert marg >= 80
        assert cond >= 80

    def test_strong_chain_verdicts(self):
        hits = 0
        for s in range(50):
            rng = np.random.default_rng(s)
            sm = sample_from_cpts(CHAIN, _copy_chain_cpts(), 3, m=2000, rng=rng)
            o = GSquaredOracle(sm)
            if (not o.query(0, 2).independent) and o.query(0, 2, (1,)).independent:
                hits += 1
        assert hits >= 40

    def test_copy_column_dependent(self):
        rng = np.random.default_rng(3)
        x = rng.integers(0, 3, size=1000)
        sm = SampleMatrix(np.column_stack([x, x.copy()]), "discrete", num_states=3)
        v = GSquaredOracle(sm).query(0, 1)
        assert not v.independent
        assert v.p_value < 1e-12

    def test_unreliable_below_heuristic(self):
        sm = generate_discrete(CHAIN, m=100, seed=0)
        o = GSquaredOracle(sm)
        with pytest.raises(UnreliableTestError):
            o.query(0, 2, (1,))  # needs m >= 10 * 12
        o.query(0, 2)  # marginal dof 4 is fine at m=100

    def test_constant_column_independent_at_p1(self):
        vals = np.column_stack([
            np.zeros(500, dtype=np.int64),
            np.random.default_rng(0).integers(0, 3, 500),
        ])
        sm = SampleMatrix(vals, "discrete", num_states=3)
        v = GSquaredOracle(sm).query(0, 1)
        assert v.independent and v.p_value == 1.0

    def test_marginal_rows_match_the_one_table_kernel(self, monkeypatch):
        # a marginal p-value read from its block of pairs carries the bits of
        # the kernel on that pair's table alone, with the default block and
        # with blocks of three pairs
        g = generate_random_dag(12, 1.25, seed=8)
        default = sada.citest.G2_BLOCK_CODES
        for k, m in ((2, 60), (3, 200), (4, 400), (5, 700)):
            sm = generate_discrete(g, m=m, num_states=k, seed=k)
            kernel = G2Kernel(k, m)
            want = {}
            for u, v in itertools.combinations(range(12), 2):
                code = sm.values[:, v] + k * sm.values[:, u]
                want[u, v] = kernel.p_value(np.bincount(code, minlength=k * k).reshape(1, k, k))
            for codes in (default, 3 * m):
                monkeypatch.setattr(sada.citest, "G2_BLOCK_CODES", codes)
                o = GSquaredOracle(sm)
                assert {(u, v): o.query(v, u).p_value for u, v in want} == want

    def test_marginal_block_is_scored_once(self, monkeypatch):
        # the first marginal test in a block of pairs, in row-major order,
        # scores the whole block in one kernel call; another pair of that
        # block reads it, and a repeated query returns the verdict it
        # cached. Below the reliability floor nothing is scored
        monkeypatch.setattr(sada.citest, "G2_BLOCK_CODES", 10 * 200)
        sm = generate_discrete(generate_random_dag(10, 1.25, seed=2), m=200, seed=3)
        o = GSquaredOracle(sm)
        kernel, calls = o._g2, []

        class Counting:
            def table_p_values(self, tables):
                calls.append(len(tables))
                return kernel.table_p_values(tables)

            def __getattr__(self, name):
                return getattr(kernel, name)

        o._g2 = Counting()
        # rows of pairs start at 0, 9, 17, 24, ...: (2, 5) is pair 19, in
        # the block of pairs 10 to 19 with (1, 3) and (2, 4)
        first = o.query(5, 2)
        assert calls == [10]
        o.query(2, 4)
        o.query(3, 1)
        assert calls == [10]
        assert o.query(2, 5) is first is o._cache[2, 5, ()]
        o.query(8, 9)  # pair 44, the last block's fifth, after 40 to 43
        assert calls == [10, 5]
        few = GSquaredOracle(SampleMatrix(sm.values[:39], "discrete", num_states=3))
        few._g2 = Counting()
        with pytest.raises(UnreliableTestError):
            few.query(0, 1)  # marginal dof 4 needs m >= 40
        assert calls == [10, 5] and few._blocks == [None]

    def test_symmetric_in_pair(self):
        g = generate_random_dag(6, 1.25, seed=5)
        sm = generate_discrete(g, m=2000, seed=6)
        o = GSquaredOracle(sm)
        for u, v, z in [(0, 3, ()), (1, 5, (2,)), (2, 4, ())]:
            # the repeat is the cached verdict
            assert o.query(u, v, z) is o.query(v, u, z[::-1])

    def test_kind_mismatch(self):
        cont = SampleMatrix(np.random.default_rng(0).random((10, 2)), "continuous")
        with pytest.raises(CiError):
            GSquaredOracle(cont)


class TestG2Kernel:
    """The all-strata kernel against the per-stratum expected-count loop."""

    @staticmethod
    def _tables(rng, k, strata, m):
        codes = rng.integers(0, k * k * strata, size=m)
        tables = np.bincount(codes, minlength=k * k * strata).reshape(strata, k, k)
        # empty strata, and zero row and column marginals in others
        tables[rng.random(strata) < 0.25] = 0
        for s in np.flatnonzero(rng.random(strata) < 0.3):
            tables[s, rng.integers(0, k), :] = 0
        for s in np.flatnonzero(rng.random(strata) < 0.3):
            tables[s, :, rng.integers(0, k)] = 0
        return tables

    def test_matches_per_stratum_reference(self):
        rng = np.random.default_rng(17)
        cases = empty = shrunk = 0
        for k in (2, 3, 4):
            for z in (0, 1, 2):
                for m in (5, 40, 300):
                    kernel = G2Kernel(k, m)
                    for _ in range(30):
                        tables = self._tables(rng, k, k ** z, m)
                        got_g2, got_dof = kernel(tables)
                        want_g2, want_dof = g2_from_tables_reference(tables)
                        assert got_dof == want_dof
                        assert abs(got_g2 - want_g2) <= 1e-9
                        want_p = float(stats.chi2.sf(want_g2, want_dof)) if want_dof else 1.0
                        assert (kernel.p_value(tables) > 0.05) == (want_p > 0.05)
                        cases += 1
                        empty += bool((tables.sum(axis=(1, 2)) == 0).any())
                        shrunk += want_dof < (k - 1) ** 2 * k ** z
        assert cases == 810 and empty > 100 and shrunk > 300

    def test_table_p_values_match_one_table_p_value(self):
        # each table's p-value from a batch carries the bits of p_value on
        # that table alone, wherever it sits in the batch; empty tables,
        # zero marginals and dof 0 among them
        rng = np.random.default_rng(29)
        empty = degenerate = 0
        for k in (2, 3, 4, 5):
            for m in (5, 40, 300):
                kernel = G2Kernel(k, m)
                for count in (1, 2, 7, 60):
                    tables = self._tables(rng, k, count, m)
                    want = [kernel.p_value(t[None]) for t in tables]
                    assert kernel.table_p_values(tables).tolist() == want
                    perm = rng.permutation(count)
                    assert kernel.table_p_values(tables[perm]).tolist() == [want[i] for i in perm]
                    empty += int((tables.sum(axis=(1, 2)) == 0).sum())
                    degenerate += sum(g2_from_tables_reference(t[None])[1] == 0 for t in tables)
        assert empty > 100 and degenerate > 300

    def test_oracle_verdicts_match_reference(self):
        # the oracle's verdicts are the reference statistic's, query by query
        rng = np.random.default_rng(23)
        for k, m in ((2, 400), (3, 1000), (4, 1800)):
            sm = generate_discrete(generate_random_dag(8, 1.25, seed=k), m=m, num_states=k, seed=k)
            o = GSquaredOracle(sm)
            for u, v, z in _random_queries(sm.n, 200, rng):
                z = z[:2]
                code = sm.values[:, v] + k * sm.values[:, u]
                for i, w in enumerate(z):
                    code = code + k ** (i + 2) * sm.values[:, w]
                tables = np.bincount(code, minlength=k ** (len(z) + 2)).reshape(-1, k, k)
                g2, dof = g2_from_tables_reference(tables)
                want = True if dof == 0 else float(stats.chi2.sf(g2, dof)) > o.alpha_level
                try:
                    got = o.query(u, v, z).independent
                except UnreliableTestError:
                    continue
                assert got == want, (k, u, v, z)


def _chain_oracles(chain):
    """One oracle of each kind over the same graph."""
    return (ExactCiOracle(chain),
            PartialCorrelationOracle(generate_linear_nongaussian(chain, m=200, seed=1)),
            GSquaredOracle(generate_discrete(chain, m=300, seed=1)))


def _first_separating_subset(oracle, u, v, pool, cap):
    """The plain scan: every subset of the pool by size, then in ascending
    id order, up to the cap; refused tests are skipped."""
    pool = sorted(pool)
    for size in range(len(pool) + 1 if cap is None else min(cap, len(pool)) + 1):
        for sub in itertools.combinations(pool, size):
            try:
                if oracle.query(u, v, sub).independent:
                    return frozenset(sub)
            except (UnreliableTestError, SingularConditioningError, InsufficientSamplesError):
                continue
    return None


class TestExactOracle:
    def test_verdicts_and_p_values(self, chain3):
        o = ExactCiOracle(chain3)
        dep = o.query(0, 2)
        sep = o.query(0, 2, (1,))
        assert (dep.independent, dep.p_value) == (False, 0.0)
        assert (sep.independent, sep.p_value) == (True, 1.0)
        # a repeat, in either pair order, is the cached verdict
        assert o.query(2, 0) is dep and o.query(2, 0, [1, 1]) is sep

    def test_collider_separator_is_empty_set(self):
        o = ExactCiOracle(VSTRUCT)
        sep = o.find_separator(0, 1, bits({2}), 3)
        assert sep == frozenset()
        assert sep is not None

    def test_chain_separator(self, chain3):
        assert ExactCiOracle(chain3).find_separator(0, 2, bits({1}), 3) == {1}

    def test_nine_node_separators(self, nine_node):
        o = ExactCiOracle(nine_node)
        assert o.find_separator(6, 1, bits({3}), 3) is None
        assert o.find_separator(6, 1, bits({2, 3}), 3) == {2, 3}
        assert o.separable(6, bits([1]), bits({2, 3}), 3)
        assert not o.separable(6, bits([1]), bits({3}), max_cond=None)

    # (u, v, pool): an id out of range, a negative pool, a pool that holds
    # the pair, u == v; the ids name each case by its position
    BAD_POOLS = [
        (0, 2, bits({1, 7})),
        (0, 2, -1),
        (0, 9, bits({1})),
        (-1, 2, 0),
        (0, 2, bits({0, 7})),
        (-1, 2, bits({2})),
        (0, 2, bits({2})),
        (0, 2, 1 << 3),
        (0, 9, bits({1, 9})),
        (1, 1, bits({2})),
    ]

    @pytest.mark.parametrize("u, v, pool", BAD_POOLS, ids=[
        f"{u}-{v}-pool{i}-CiError" for i, (u, v, _) in enumerate(BAD_POOLS)])
    def test_bad_pool_raises(self, chain3, u, v, pool):
        # every oracle shares one check: both searches, and a query with the
        # pool's ids as its conditioning set, reject a bad id, u == v or a
        # pool that holds the pair
        z = bit_ids(pool) if pool >= 0 else [pool]
        for o in _chain_oracles(chain3):
            for call, args in ((o.find_separator, (v, pool, 3)),
                               (o.separable, (1 << v, pool, 3)),
                               (o.query, (v, z))):
                with pytest.raises(CiError) as info:
                    call(u, *args)
                assert info.type is CiError

    @pytest.mark.parametrize("bad", [0.5, 1.0, np.float64(1.0), True, np.bool_(False), "1", None],
                             ids=value_id)
    def test_non_integral_id_is_refused(self, chain3, bad):
        # one integer rule in every oracle: a float, even a whole one, or a
        # bool is refused as u, v or a conditioning id, not truncated or
        # taken for the int it equals, and before any test runs
        for o in _chain_oracles(chain3):
            for call, args in ((o.query, (bad, 2)), (o.query, (2, bad)),
                               (o.query, (0, 2, (bad,))), (o.query, (0, 2, (1, bad))),
                               (o.find_separator, (bad, 2, 0, 3)),
                               (o.find_separator, (0, bad, 0, 3)),
                               (o.separable, (bad, 1 << 2, 0, 3))):
                with pytest.raises(CiError, match="variable id must be an integer"):
                    call(*args)
            assert not o._cache
            assert o.query(np.int64(0), np.int32(2), (np.int64(1),)) == o.query(0, 2, (1,))
            # a numpy integer u or v is taken as the int it is
            assert o.find_separator(0, np.int64(2), 1 << 1, 3) == o.find_separator(0, 2, 1 << 1, 3)
            assert o.separable(np.int32(0), 1 << 2, 1 << 1, 3) == o.separable(0, 1 << 2, 1 << 1, 3)

    def test_one_pool_across_pairs_answers_as_a_fresh_oracle(self, nine_node):
        # one pool bitset serves many pairs, as in the cut growth; every
        # answer equals the one a fresh oracle gives
        o = ExactCiOracle(nine_node)
        pool = bits({2, 3, 7})
        for u in range(9):
            for v in range(9):
                if u == v or (pool >> u) & 1 or (pool >> v) & 1:
                    continue
                fresh = ExactCiOracle(nine_node)
                for cap in (0, 1, None):
                    assert o.separable(u, 1 << v, pool, cap) == fresh.separable(u, 1 << v, pool, cap)
                    assert o.find_separator(u, v, pool, cap) == \
                        fresh.find_separator(u, v, pool, cap)

    def test_bad_pair_on_an_already_searched_pool_raises(self, nine_node):
        o = ExactCiOracle(nine_node)
        pool = bits({2, 3})
        o.separable(6, bits([1]), pool, 3)
        for u, v in ((2, 7), (0, 3), (3, 2)):
            with pytest.raises(CiError):
                o.find_separator(u, v, pool, 3)
            with pytest.raises(CiError):
                o.separable(u, 1 << v, pool, 3)
        for u, v in ((9, 1), (0, -1)):
            with pytest.raises(CiError):
                o.find_separator(u, v, pool, 3)
            with pytest.raises(CiError):
                o.separable(u, 1 << v if v >= 0 else -1, pool, 3)

    def test_out_of_range_pool_raises_on_every_call(self, chain3):
        o = ExactCiOracle(chain3)
        pool = bits({1, 7})
        for _ in range(2):
            with pytest.raises(CiError) as info:
                o.separable(0, bits([2]), pool, 3)
            assert info.type is CiError

    def test_equal_distinct_pools_agree(self, nine_node):
        o = ExactCiOracle(nine_node)
        a, b = bits([2, 3]), (1 << 3) | (1 << 2)
        assert a == b
        assert o.find_separator(6, 1, a, 3) == o.find_separator(6, 1, b, 3) == {2, 3}
        assert not o.separable(6, bits([1]), bits([3]), None)
        assert o.separable(6, bits([1]), a, 3) and o.separable(6, bits([1]), b, 3)

    def test_matches_bruteforce_scan(self):
        # the ancestor-restricted search must return the very same subset the
        # full candidate scan would, for every cap; the statistical oracles
        # must return the first decided, separating subset of the pool; and
        # for every oracle `separable` agrees with `find_separator`
        rng = np.random.default_rng(13)
        for s, g in enumerate(random_small_dags(16, seed=99)):
            o = ExactCiOracle(g)
            stats_oracles = (
                PartialCorrelationOracle(generate_linear_nongaussian(g, m=60, seed=s)),
                GSquaredOracle(generate_discrete(g, m=150, seed=s)))
            for _ in range(12):
                u, v = rng.choice(g.n, size=2, replace=False)
                u, v = int(u), int(v)
                pool_size = int(rng.integers(0, g.n - 1))
                pool = [w for w in rng.permutation(g.n)[:pool_size] if w not in (u, v)]
                for cap in (0, 1, 2, 3, None):
                    expect = exists_separator_brute(g, u, v, pool, cap)
                    got = o.find_separator(u, v, bits(pool), cap)
                    if expect is None:
                        assert got is None
                    else:
                        assert got == frozenset(expect)
                    assert o.separable(u, 1 << v, bits(pool), cap) == (expect is not None)
                    for so in stats_oracles:
                        got = so.find_separator(u, v, bits(pool), cap)
                        assert got == _first_separating_subset(so, u, v, pool, cap)
                        assert so.separable(u, 1 << v, bits(pool), cap) == (got is not None)


def _vstruct_oracles():
    """One oracle of each kind over the collider 0 -> 2 <- 1."""
    return (ExactCiOracle(VSTRUCT),
            PartialCorrelationOracle(generate_linear_nongaussian(VSTRUCT, m=200, seed=1)),
            GSquaredOracle(generate_discrete(VSTRUCT, m=300, seed=1)))


class TestSeparableSide:
    """`separable(u, vs, ...)`: whether u separates from every member of vs."""

    def test_empty_side_is_separable(self):
        for o in _vstruct_oracles():
            assert o.separable(0, 0, bits({1}), 3) is True
            assert o.separable(2, 0, 0, None) is True

    # (vs, pool) for u = 0: an id out of range, a negative side, a side that
    # holds u, a pool that holds a member, a list side, an out-of-range and
    # a u-holding pool next to an empty side; the ids name each case by its
    # position
    BAD_SIDES = [
        (bits([2, 7]), 0),
        (-5, bits({1})),
        (bits([2, 0]), 0),
        (bits([2, 1]), bits({1})),
        ([2, 1], 0),
        (0, bits({1, 7})),
        (0, bits({0})),
    ]

    @pytest.mark.parametrize("vs, pool", BAD_SIDES,
                             ids=[f"vs{i}-pool{i}" for i in range(len(BAD_SIDES))])
    def test_bad_member_raises_after_a_failing_one(self, vs, pool):
        # 0 and 2 are adjacent, so the first member is never separable; the
        # ids are all checked before any search stops the scan, and an empty
        # side still has u and the pool checked
        for o in _vstruct_oracles():
            assert not o.separable(0, bits([2]), pool & ~bits({0, 2, 7}), 3)
            with pytest.raises(CiError) as info:
                o.separable(0, vs, pool, 3)
            assert info.type is CiError

    # (vs, pool, fault) for u = 0 over three variables: a malformed side or
    # pool, and the message that names it
    BAD_BITSETS = [
        (-4, 0, "vs must be a bitset"),
        (True, 0, "vs must be a bitset .* got bool"),
        ({2}, 0, "vs must be a bitset .* got set"),
        ([2], 0, "vs must be a bitset .* got list"),
        (1 << 3, 0, "vs holds variable id 3, out of range"),
        (bits([2]), -2, "candidates must be a bitset"),
        (bits([2]), False, "candidates must be a bitset .* got bool"),
        (bits([2]), {1}, "candidates must be a bitset .* got set"),
        (bits([2]), [1], "candidates must be a bitset .* got list"),
        (bits([2]), 1 << 5, "candidates holds variable id 5, out of range"),
        (bits([2]), bits([0]), "must exclude the queried pair"),
        (bits([2]), bits([2]), "must exclude the queried pair"),
        (bits([2, 1]), bits([1]), "must exclude the queried pair"),
        (bits([2, 0]), 0, "vs holds u=0"),
    ]

    @pytest.mark.parametrize("vs, pool, fault", BAD_BITSETS)
    def test_bad_bitset_names_the_fault(self, vs, pool, fault):
        # every oracle refuses a malformed side or pool before any search,
        # naming the fault; find_separator takes its pool through one check
        for o in _vstruct_oracles():
            with pytest.raises(CiError, match=fault):
                o.separable(0, vs, pool, 3)
            if vs == bits([2]):
                with pytest.raises(CiError, match=fault):
                    o.find_separator(0, 2, pool, 3)
            assert not o._cache

    def test_unreached_member_over_the_cap_takes_the_scan(self):
        # 4 separates from 0 only given both common parents 1 and 2, so it
        # lies outside 0's component and its descendants; under a cap of 1
        # no separator fits
        o = ExactCiOracle(Dag(5, [(1, 0), (2, 0), (1, 4), (2, 4)]))
        pool = bits({1, 2})
        assert o.separable(0, bits([3, 4]), pool, None)
        assert not o.separable(0, bits([3, 4]), pool, 1)
        assert o.separable(0, bits([3, 4]), pool, 2)

    def test_matches_per_member_scan(self):
        # every oracle answers as its own per-member `find_separator` scan,
        # on sides that take the set search, the subset-scan fallback for an
        # ancestor pool over the cap, and both verdicts
        rng = np.random.default_rng(2026)
        outcomes = {True: 0, False: 0}
        for s, g in enumerate(random_small_dags(16, max_n=9, seed=5)):
            def oracles():
                return (ExactCiOracle(g),
                        PartialCorrelationOracle(generate_linear_nongaussian(g, m=80, seed=s)),
                        GSquaredOracle(generate_discrete(g, m=200, seed=s)))
            tested, reference = oracles(), oracles()
            for _ in range(8):
                perm = [int(x) for x in rng.permutation(g.n)]
                u = perm[0]
                k = int(rng.integers(0, g.n))
                vs = perm[1:1 + k]
                pool = bits(w for w in perm[1 + k:] if rng.random() < 0.7)
                for cap in (0, 1, 2, 3, None):
                    for o, ref in zip(tested, reference):
                        want = all(ref.find_separator(u, v, pool, cap) is not None for v in vs)
                        assert o.separable(u, bits(vs), pool, cap) == want, (g, u, vs, pool, cap)
                        outcomes[want] += len(vs) > 1
        assert outcomes[True] and outcomes[False]

    def test_exact_matches_per_member_scan_at_scale(self):
        # the exact oracle's component shortcut answers as the per-member
        # scan of a fresh oracle on a fresh copy of the graph, on relabelled
        # n = 60 graphs, over every cap
        rng = np.random.default_rng(60)
        outcomes = {True: 0, False: 0}
        for seed in range(3):
            g = relabelled(generate_random_dag(60, 1.25 + 0.5 * seed, seed=seed), rng)
            o = ExactCiOracle(g)
            for _ in range(100):
                perm = [int(x) for x in rng.permutation(g.n)]
                k = int(rng.integers(1, 16))
                vs = perm[1:1 + k]
                pool = bits(w for w in perm[1 + k:] if rng.random() < 0.5)
                for cap in (None, 0, 1, 2, 3):
                    ref = ExactCiOracle(Dag(g.n, g.edges))
                    want = all(ref.find_separator(perm[0], v, pool, cap) is not None for v in vs)
                    assert o.separable(perm[0], bits(vs), pool, cap) == want, (seed, perm[0], vs, cap)
                    outcomes[want] += 1
        assert outcomes[True] and outcomes[False]


def _spread(g, rng, factor=4):
    """g with its ids mapped at random into 0..factor*n-1; the ids left out
    are isolated variables."""
    ids = [int(x) for x in rng.choice(factor * g.n, g.n, replace=False)]
    return Dag(factor * g.n, [(ids[a], ids[b]) for a, b in g.edges]), ids


class TestOneReadSideTest:
    """The exact oracle's side test reads u's cached component once: it
    answers as the per-member check it replaced, and a side that holds a
    neighbour of u or a member of u's component R_u is refused from that
    component alone."""

    def test_matches_the_per_member_check(self):
        # plain, relabelled and spread ids; random sides and pools; every
        # cap; a fresh graph per call (cold component cache) and one graph
        # for all calls (warm)
        rng = np.random.default_rng(2030)
        outcomes = {True: 0, False: 0}
        for seed in range(6):
            base = generate_random_dag(int(rng.integers(12, 40)), 1.0 + 0.25 * (seed % 4), seed=seed)
            for shape in ("plain", "relabelled", "spread"):
                if shape == "plain":
                    g, used = base, list(range(base.n))
                elif shape == "relabelled":
                    g, used = relabelled(base, rng), list(range(base.n))
                else:
                    g, used = _spread(base, rng)
                warm, ref = ExactCiOracle(g), per_member_exact_oracle(Dag(g.n, g.edges))
                for _ in range(25):
                    perm = [used[i] for i in rng.permutation(len(used))]
                    u, k = perm[0], int(rng.integers(1, 8))
                    vs = bits(perm[1:1 + k])
                    pool = bits(w for w in perm[1 + k:] if rng.random() < 0.5)
                    for cap in (None, 0, 1, 2, 3):
                        want = ref.separable(u, vs, pool, cap)
                        cold = ExactCiOracle(Dag(g.n, g.edges))
                        assert cold.separable(u, vs, pool, cap) == want, (shape, u, vs, pool, cap)
                        assert warm.separable(u, vs, pool, cap) == want, (shape, u, vs, pool, cap)
                        outcomes[want] += 1
        assert min(outcomes.values()) > 100, outcomes

    # (edges, u, vs, pool): a side whose lowest member is a child of u, a
    # parent of u, an ancestor of u joined to it outside the pool, or the
    # other parent of a pool member that is a parent of u
    REFUSED = [
        ([(0, 1), (2, 3)], 0, [1, 3], 0),
        ([(1, 0), (2, 3)], 0, [1, 3], 0),
        ([(1, 0), (2, 0), (3, 1)], 0, [3, 4], bits([2])),
        ([(1, 3), (2, 3), (3, 0), (1, 0)], 0, [2], bits([3])),
    ]

    @pytest.mark.parametrize("edges, u, vs, pool", REFUSED)
    @pytest.mark.parametrize("cap", [None, 0, 3])
    def test_whole_side_refusal_reads_only_u(self, edges, u, vs, pool, cap):
        g = Dag(5, edges)
        o = ExactCiOracle(g)
        assert ExactCiOracle(Dag(5, edges)).find_separator(u, min(vs), pool, None) is None
        assert o.separable(u, bits(vs), pool, cap) is False
        assert list(g._dsep_cache) == [(u, pool & g._anc[u])] and not o._cache


class TestFindSeparatorDispatch:
    def test_statistical_chain(self):
        sm = generate_linear_nongaussian(CHAIN, m=2000, seed=21)
        o = PartialCorrelationOracle(sm)
        assert o.find_separator(0, 2, bits({1}), 3) == {1}

    def test_candidate_pool_excludes_pair(self, chain3):
        with pytest.raises(CiError):
            ExactCiOracle(chain3).find_separator(0, 2, bits({0, 1}), 3)

    def test_cap_zero_only_empty_subset(self, chain3):
        assert ExactCiOracle(chain3).find_separator(0, 2, bits({1}), max_cond=0) is None

    def test_unreliable_subsets_are_skipped(self):
        # m=100 makes |z|=1 unreliable for k=3, so only the empty set is
        # testable: strongly linked endpoints yield no separator at all
        rng = np.random.default_rng(2)
        sm = sample_from_cpts(CHAIN, _copy_chain_cpts(peak=0.9), 3, m=100, rng=rng)
        o = GSquaredOracle(sm)
        assert o.find_separator(0, 2, bits({1}), 3) is None
        # an unlinked pair still separates through the decidable empty set
        free = SampleMatrix(
            np.column_stack([
                rng.integers(0, 3, 100), rng.integers(0, 3, 100), rng.integers(0, 3, 100),
            ]), "discrete", num_states=3)
        o2 = GSquaredOracle(free)
        assert o2.find_separator(0, 1, bits({2}), 3) == frozenset()

    def test_every_scanned_subset_goes_through_query(self, nine_node):
        # a wrapper on the instance's `query`, as a tracer installs one, sees
        # one call per scanned subset, in scan order, refused ones included;
        # the verdicts it returns are the ones cached under `query`'s keys,
        # and a statistical `separable` makes the same calls per member.
        # The exact oracle scans only the ancestor part {2, 3} of its pool;
        # the G2 chain refuses |z| = 1 at m = 100
        chain = sample_from_cpts(CHAIN, _copy_chain_cpts(peak=0.9), 3, m=100,
                                 rng=np.random.default_rng(2))
        cases = (
            (ExactCiOracle(nine_node), 6, 1, {2, 3, 5}, [2, 3]),
            (PartialCorrelationOracle(generate_linear_nongaussian(nine_node, m=400, seed=3)),
             6, 1, {2, 3, 5}, [2, 3, 5]),
            (GSquaredOracle(chain), 0, 2, {1}, [1]),
        )
        for o, u, v, pool, scanned_pool in cases:
            calls, verdicts, query = [], [], o.query

            def traced(u, v, z=()):
                calls.append((u, v, tuple(z)))
                verdicts.append(None)  # stays None for a refused test
                verdicts[-1] = query(u, v, z)
                return verdicts[-1]

            o.query = traced
            sep = o.find_separator(u, v, bits(pool), 3)
            scanned = [(u, v, z) for size in range(4)
                       for z in itertools.combinations(scanned_pool, size)]
            assert calls == (scanned if sep is None else
                             scanned[:scanned.index((u, v, tuple(sorted(sep)))) + 1])
            assert all(vd is None or o._cache[min(u, v), max(u, v), z] is vd
                       for (_, _, z), vd in zip(calls, verdicts))
            if not isinstance(o, ExactCiOracle):
                found = list(calls)
                del calls[:]
                assert o.separable(u, 1 << v, bits(pool), 3) == (sep is not None)
                assert calls == found
        assert None in verdicts and sep is None


def _counted_queries(o):
    """The list each `query` call on o is appended to from now on."""
    calls, query = [], o.query

    def counted(u, v, z=()):
        calls.append((u, v, tuple(z)))
        return query(u, v, z)

    o.query = counted
    return calls


class TestFailedSearchMemo:
    """find_separator remembers the searches that found nothing."""

    def test_repeat_of_a_failed_search_makes_no_query(self):
        # TableOracle finds every pair dependent; in the exact oracle's graph
        # 0 and 4 separate only given both 1 and 2, past a cap of 1, so its
        # pool check passes and the scan fails
        cases = ((TableOracle(n=5), 0, 4, bits({1, 2, 3})),
                 (ExactCiOracle(Dag(5, [(1, 0), (2, 0), (1, 4), (2, 4)])), 0, 4, bits({1, 2})))
        for o, u, v, pool in cases:
            calls = _counted_queries(o)
            assert o.find_separator(u, v, pool, 1) is None
            assert calls
            del calls[:]
            assert o.find_separator(u, v, pool, 1) is None
            assert calls == []
            assert o._failed == {(u, v, pool, 1)}
            # another cap is another search
            assert o.find_separator(u, v, pool, 2) == (None if isinstance(o, TableOracle)
                                                       else frozenset({1, 2}))
            assert calls

    def test_a_found_separator_is_not_stored(self):
        o = TableOracle(independent=[(0, 1, (2,))], n=4)
        calls = _counted_queries(o)
        assert o.find_separator(0, 1, bits({2, 3}), 3) == {2}
        first = len(calls)
        assert o.find_separator(0, 1, bits({2, 3}), 3) == {2}
        assert len(calls) == 2 * first and not o._failed

    @pytest.mark.parametrize("u, pool, cap", [
        (True, bits({0, 2}), 1),
        (np.True_, bits({0, 2}), 1),
        (1, [0, 2], 1),
        (1, bits({0, 2}), True),
    ], ids=["bool-u", "numpy-bool-u", "list-pool", "bool-cap"])
    def test_a_bad_repeat_still_raises(self, u, pool, cap):
        # the memo is read only once the arguments pass their checks: the
        # entry stored for (1, 4, {0, 2}, 1) answers neither u=True, nor an
        # unhashable list pool, nor max_cond=True
        for o in (TableOracle(n=5), ExactCiOracle(Dag(5, [(0, 1), (2, 1), (0, 4), (2, 4)]))):
            assert o.find_separator(1, 4, bits({0, 2}), 1) is None
            assert o._failed == {(1, 4, bits({0, 2}), 1)}
            for _ in range(2):
                with pytest.raises(CiError) as info:
                    o.find_separator(u, 4, pool, cap)
                assert info.type is CiError
            assert len(o._failed) == 1


class HookAssertingOracle(TableOracle):
    """A TableOracle whose hooks check nothing but assert what the base
    class's gate promises them, and record each call: ids as ints in range,
    bitsets over 0..n-1, a nonempty side without u and a pool that holds
    neither u nor a member of the side."""

    def __init__(self, n):
        super().__init__(n=n)
        self.hook_calls = []

    def _assert_checked(self, u, vs, candidates, max_cond):
        n = self._n
        assert type(u) is int and 0 <= u < n
        assert type(vs) is int and 0 < vs and not vs >> n and not (vs >> u) & 1
        assert type(candidates) is int and 0 <= candidates and not candidates >> n
        assert not candidates & (vs | (1 << u))
        assert max_cond is None or (type(max_cond) is int and max_cond >= 0)

    def _p_value(self, u, v, zt):
        self.hook_calls.append("_p_value")
        assert type(v) is int and u < v < self._n and list(zt) == sorted(set(zt))
        assert all(type(w) is int for w in zt)
        self._assert_checked(u, 1 << v, sum(1 << w for w in zt), None)
        return super()._p_value(u, v, zt)

    def _pool(self, u, v, candidates):
        self.hook_calls.append("_pool")
        assert type(v) is int and 0 <= v < self._n
        self._assert_checked(u, 1 << v, candidates, None)
        return super()._pool(u, v, candidates)

    def _separable(self, u, vs, candidates, max_cond):
        self.hook_calls.append("_separable")
        self._assert_checked(u, vs, candidates, max_cond)
        return super()._separable(u, vs, candidates, max_cond)


class TestGate:
    """Each public entry point checks its arguments once, in the base
    class, before any hook runs; the hooks take the checked ints."""

    @pytest.mark.parametrize("u, v, pool", TestExactOracle.BAD_POOLS,
                             ids=[f"pool{i}" for i in range(len(TestExactOracle.BAD_POOLS))])
    def test_bad_pool_never_reaches_a_hook(self, u, v, pool):
        o = HookAssertingOracle(n=3)
        z = bit_ids(pool) if pool >= 0 else [pool]
        for call, args in ((o.find_separator, (u, v, pool, 3)),
                           (o.separable, (u, 1 << v, pool, 3)),
                           (o.query, (u, v, z))):
            with pytest.raises(CiError) as info:
                call(*args)
            assert info.type is CiError
        assert o.hook_calls == [] and not o._cache and not o._failed

    @pytest.mark.parametrize("vs, pool, fault", TestSeparableSide.BAD_BITSETS)
    def test_bad_bitset_never_reaches_a_hook(self, vs, pool, fault):
        o = HookAssertingOracle(n=3)
        with pytest.raises(CiError, match=fault):
            o.separable(0, vs, pool, 3)
        if vs == bits([2]):
            with pytest.raises(CiError, match=fault):
                o.find_separator(0, 2, pool, 3)
        assert o.hook_calls == [] and not o._cache and not o._failed

    def test_good_calls_reach_the_hooks(self):
        o = HookAssertingOracle(n=5)
        assert o.find_separator(np.int64(1), np.uint8(4), bits({0, 2}), np.int64(1)) is None
        assert not o.separable(np.int32(0), bits([2, 3]), bits({1}), None)
        assert not o.query(np.int64(3), 1, [np.int32(4), 0, 4]).independent
        assert set(o.hook_calls) == {"_p_value", "_pool", "_separable"}

    def test_numpy_ids_key_the_caches_as_ints(self):
        # in the exact oracle's graph 1 and 4 separate only given both 0
        # and 2, past a cap of 1, so both searches find nothing
        for o in (TableOracle(n=5), ExactCiOracle(Dag(5, [(0, 1), (2, 1), (0, 4), (2, 4)]))):
            pool = bits({0, 2, 3})
            assert o.find_separator(np.int64(1), np.int32(4), pool, 1) is None
            o.query(np.int64(0), np.int32(2), (np.int64(1),))
            parts = [p for key in (*o._failed, *o._cache) for p in key]
            ids = [w for p in parts for w in (p if type(p) is tuple else (p,))]
            assert o._failed and o._cache
            assert all(type(w) is int for w in ids), ids
            calls = _counted_queries(o)
            assert o.find_separator(1, 4, pool, 1) is None
            computed, p_value = [], o._p_value
            o._p_value = lambda *args: computed.append(args) or p_value(*args)
            o.query(0, 2, (1,))
            assert calls == [(0, 2, (1,))] and computed == []

    @pytest.mark.parametrize("z", [6, np.int64(2), True], ids=value_id)
    def test_bitset_conditioning_set_is_refused(self, z):
        # query takes z as ids, unlike the searches' bitsets
        for o in (TableOracle(n=4), ExactCiOracle(CHAIN)):
            with pytest.raises(CiError, match="z must be an iterable of variable ids, not a bitset"):
                o.query(0, 2, z)
            assert not o._cache


def _gate_outcome(check, u, v, z, n, error):
    """check(u, v, z, n, error) as its value with the type of each id, or
    the class and message it raises."""
    try:
        got = check(u, v, z() if callable(z) else z, n, error)
    except ValueError as exc:
        return type(exc), str(exc)
    return got, [type(w) for w in (*got[:2], *got[2])]


class TestGateFastPath:
    """`checked_ids` passes the ids a scan builds as they are and takes the
    full rule for anything else: value or error, it answers as the rule
    alone does, for query's CiError and d_separated's GraphError."""

    N = 6
    IDS = (0, 1, 2, 3, 5, -1, 6, 7, True, False, np.int64(2), np.int32(4), np.True_, 2.0,
           np.float64(1.0), 3.5, "1", None)

    def _cases(self, rng, count):
        n, ids = self.N, self.IDS
        plain = list(range(n))
        for _ in range(count):
            u, v = (plain[rng.integers(n)] if rng.random() < 0.7 else ids[rng.integers(len(ids))]
                    for _ in range(2))
            size = int(rng.integers(5))
            members = [plain[rng.integers(n)] if rng.random() < 0.8 else ids[rng.integers(len(ids))]
                       for _ in range(size)]
            shape = rng.integers(6)
            if shape == 0:
                # ascending ints, as a scan builds them, distinct or not
                try:
                    members = sorted(members)
                except TypeError:
                    pass
                yield u, v, tuple(members)
            elif shape == 1:
                yield u, v, tuple(members)
            elif shape == 2:
                yield u, v, list(members)
            elif shape == 3:
                yield u, v, (lambda ms=tuple(members): (w for w in ms))
            elif shape == 4:
                try:
                    yield u, v, set(members)
                except TypeError:
                    yield u, v, members
            else:
                yield u, v, ids[rng.integers(len(ids))]

    ADVERSARIAL = [
        (0, 1, ()), (0, 1, (2, 3, 4)), (4, 1, (0, 2, 5)), (0, 1, (3, 2)), (0, 1, (2, 2)),
        (0, 1, (2, 3, 3)), (0, 0, ()), (0, 0, (1,)), (0, 1, (0,)), (0, 1, (2, 1)),
        (2, 1, (0, 2)), (0, 1, (2, 6)), (0, 1, (-1, 2)), (0, 6, (2,)), (-1, 1, ()),
        (True, 1, ()), (0, False, (2,)), (0, 1, (True, 2)), (0, 1, (np.int64(2),)),
        (np.int64(0), 1, (2,)), (0, np.int32(1), ()), (0, 1, (2.0,)), (0.0, 1, ()),
        (0, 1, [2, 3]), (0, 1, {3, 2}), (0, 1, 3), (0, 1, np.int64(3)), (0, 1, True),
        (0, 1, None), (0, 1, "23"), (0, 1, (2, 3.0)), (0, 1, (5, 2)), (5, 0, (1, 2, 3, 4)),
        (0, 1, (2, 4, 3)), (0, 1, (2, np.int64(3), 4)), (1, 1, (1,)), (0, 1, (2, 3, 4, 5, 6)),
    ]

    @pytest.mark.parametrize("error", [CiError, GraphError])
    def test_adversarial_ids_match_the_full_rule(self, error):
        for u, v, z in self.ADVERSARIAL:
            want = _gate_outcome(checked_ids_reference, u, v, z, self.N, error)
            assert _gate_outcome(checked_ids, u, v, z, self.N, error) == want, (u, v, z)

    @pytest.mark.parametrize("error", [CiError, GraphError])
    def test_random_ids_match_the_full_rule(self, error):
        outcomes = set()
        for u, v, z in self._cases(np.random.default_rng(27), 4000):
            want = _gate_outcome(checked_ids_reference, u, v, z, self.N, error)
            assert _gate_outcome(checked_ids, u, v, z, self.N, error) == want, (u, v, z)
            outcomes.add(want[0] if isinstance(want[0], type) else tuple)
        assert outcomes == {error, tuple}

    def test_scan_ids_come_back_as_they_are(self):
        z = (1, 3, 4)
        assert checked_ids(5, 0, z, 6, CiError)[2] is z
        for u, v, z in [(5, 0, (1, 4, 3)), (5, 0, [1, 3, 4]), (5, 0, (1, np.int64(3)))]:
            assert checked_ids(u, v, z, 6, CiError) == (5, 0, tuple(sorted(map(int, z))))


class Cap(enum.IntEnum):
    """Integral caps whose type is not int itself."""

    BELOW = -1
    TWO = 2


class TestCapRule:
    """Every search takes max_cond by the one rule: None or a count >= 0."""

    # 0 and 2 separate only given both 1 and 3
    DIAMOND = Dag(4, [(0, 1), (1, 2), (0, 3), (3, 2)])

    @pytest.mark.parametrize("bad", [True, np.True_, -1, np.int64(-2), 2.5, "3", 1.0,
                                     np.float64(2.0), Cap.BELOW, np.int64(-1)], ids=value_id)
    def test_bad_cap_is_refused(self, bad):
        for o in (ExactCiOracle(self.DIAMOND), TableOracle(n=4),
                  PartialCorrelationOracle(generate_linear_nongaussian(self.DIAMOND, m=100, seed=1))):
            with pytest.raises(CiError, match="max_cond must be None or an integer >= 0"):
                o.find_separator(0, 2, bits({1, 3}), bad)
            with pytest.raises(CiError, match="max_cond must be None or an integer >= 0"):
                o.separable(0, bits([2]), bits({1, 3}), bad)
            assert not o._cache and not o._failed

    @pytest.mark.parametrize("cap", [None, 0, 1, 2, np.int64(2), np.uint8(1), Cap.TWO,
                                     np.int64(0)], ids=value_id)
    def test_good_cap_is_taken(self, cap):
        o = ExactCiOracle(self.DIAMOND)
        want = frozenset({1, 3}) if cap is None or cap >= 2 else None
        assert o.find_separator(0, 2, bits({1, 3}), cap) == want
        assert o.separable(0, bits([2]), bits({1, 3}), cap) == (want is not None)
        assert TableOracle(n=4).separable(0, bits([2]), bits({1, 3}), cap) is False


class TestSearchGateFastPath:
    """`_checked_search` is one rule that tests the plain ints the framework
    builds before it words a refusal. Value and types, or error class and
    message, it answers as `checked_search_reference`, the full rule the gate
    wrote out before it had any fast path, does."""

    N = 6
    IDS = (0, 1, 2, 5, 6, 7, -1, True, False, np.int64(2), np.int32(4), 2.0, "1", None)
    BITSETS = (0, 1 << 6, 1 << 7, -1, -6, True, False, np.int64(6), {1}, [2], 6.0, None,
               (1 << 6) - 1)
    CAPS = (None, None, 0, 1, 3, 7, -1, True, np.int64(2), 2.0, "3", Cap.TWO, Cap.BELOW)

    def _outcome(self, check, args):
        try:
            got = check(self.N, *args)
        except Exception as exc:
            return type(exc), str(exc)
        return got, [type(x) for x in got]

    def _cases(self, rng, count):
        n = self.N

        def pick(common, odd, p):
            return common() if rng.random() < p else odd[rng.integers(len(odd))]

        for _ in range(count):
            pair = bool(rng.random() < 0.5)
            u = pick(lambda: int(rng.integers(n)), self.IDS, 0.8)
            side = (pick(lambda: int(rng.integers(n)), self.IDS, 0.8) if pair else
                    pick(lambda: int(rng.integers(1 << n)), self.BITSETS, 0.8))
            candidates = pick(lambda: int(rng.integers(1 << n)), self.BITSETS, 0.8)
            if rng.random() < 0.7 and type(u) is int and 0 <= u < n and type(candidates) is int:
                # mostly well-formed: the fast path's own ground
                vs = (1 << side if type(side) is int and 0 <= side < n else 0) if pair else side
                if type(vs) is int and vs >= 0:
                    if not pair:
                        side = vs = vs & ~(1 << u)
                    candidates &= ~(vs | 1 << u)
            max_cond = pick(lambda: self.CAPS[rng.integers(6)], self.CAPS, 0.8)
            yield u, side, candidates, max_cond, pair

    ADVERSARIAL = [
        (0, 1, 0, None, True), (0, 1, 0b111100, 3, True), (5, 0, 0b11110, 0, True),
        (0, 0, 0, None, True), (0, 6, 0, None, True), (0, -1, 0, None, True),
        (6, 1, 0, None, True), (-1, 1, 0, None, True), (0, 1, 1 << 6, None, True),
        (0, 1, 0b1, None, True), (0, 1, 0b10, None, True), (0, 1, -4, None, True),
        (0, 1, 0, -1, True), (0, True, 0, None, True), (True, 1, 0, None, True),
        (0, np.int64(1), 0, None, True), (np.int64(0), 1, 0, None, True),
        (0, 1, np.int64(4), None, True), (0, 1, 0, np.int64(2), True), (0, 1, 0, Cap.TWO, True),
        (0, 1.0, 0, None, True), (0, 1, 0, 2.0, True),
        (0, 0b10, 0b100, None, False), (0, 0b111110, 0, 3, False), (0, 0b11, 0, None, False),
        (0, 1 << 6, 0, None, False), (0, 0b10, 1 << 6, None, False), (0, -2, 0, None, False),
        (0, 0b10, -1, None, False), (0, 0b110, 0b100, None, False), (0, 0b10, 0b1, None, False),
        (6, 0b10, 0, None, False), (-1, 0b10, 0, None, False), (0, 0, 0, None, False),
        (0, 0, 1 << 6, None, False), (0, True, 0, None, False), (0, 0b10, False, None, False),
        (0, np.int64(2), 0, None, False), (0, {1}, 0, None, False), (0, 0b10, 0, -1, False),
        (0, 0b10, 0, True, False), (np.int32(0), 0b10, 0, 0, False), (0.0, 0b10, 0, 0, False),
        (0, 1 << 100, 0, None, False), (100, 0b10, 0, None, False), (0, 100, 0, None, True),
        (0, 1 << 70, 0, None, True), (1 << 70, 0b10, 0, None, False), (1 << 70, 1, 0, None, True),
    ]

    def test_adversarial_arguments_match_the_full_rule(self):
        for args in self.ADVERSARIAL:
            want = self._outcome(checked_search_reference, args)
            assert self._outcome(sada.citest._checked_search, args) == want, args

    def test_random_arguments_match_the_full_rule(self):
        outcomes = set()
        for args in self._cases(np.random.default_rng(30), 4000):
            want = self._outcome(checked_search_reference, args)
            assert self._outcome(sada.citest._checked_search, args) == want, args
            outcomes.add(want[0] if isinstance(want[0], type) else "passed")
        assert outcomes == {CiError, "passed"}


class InverseFisherZ:
    """Reference Fisher-z test: matrix inverse for every |z| and
    scipy.stats.norm.sf for the p-value."""

    def __init__(self, data, alpha_level=0.05):
        self.alpha_level = alpha_level
        self._m = data.m
        self._constant = data.values.max(axis=0) == data.values.min(axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            self._corr = np.corrcoef(data.values, rowvar=False)

    def query(self, u, v, z=()):
        zt = tuple(sorted(z))
        eff = self._m - len(zt) - 3
        if eff < 1:
            raise InsufficientSamplesError("too few samples")
        if any(self._constant[w] for w in (u, v) + zt):
            raise SingularConditioningError("constant column")
        if zt:
            idx = (u, v) + zt
            try:
                prec = np.linalg.inv(self._corr[np.ix_(idx, idx)])
            except np.linalg.LinAlgError:
                raise SingularConditioningError("singular") from None
            denom = prec[0, 0] * prec[1, 1]
            if denom <= 0:
                raise SingularConditioningError("singular")
            r = float(-prec[0, 1] / np.sqrt(denom))
        else:
            r = float(self._corr[u, v])
        if not np.isfinite(r) or abs(r) > 1 + 1e-6:
            raise SingularConditioningError("not identifiable")
        r = min(max(r, -1 + 1e-15), 1 - 1e-15)
        p = float(2 * stats.norm.sf(abs(np.sqrt(eff) * np.arctanh(r))))
        return CiVerdict(p > self.alpha_level, p)


def _outcome(oracle, u, v, z):
    try:
        return oracle.query(u, v, z)
    except CiError as exc:
        return type(exc)


def _random_queries(n, count, rng, sizes=range(6)):
    for _ in range(count):
        size = int(rng.choice(sizes))
        picked = [int(w) for w in rng.choice(n, size=size + 2, replace=False)]
        yield picked[0], picked[1], tuple(picked[2:])


class TestScipyStatsEquivalence:
    """The oracles and solvers evaluate p-values with sada's own normal and
    chi-squared tails and partial correlations by pivot elimination; these
    pin them to the scipy.stats and matrix-inverse formulas they replace:
    the same verdicts, refusals and edges, and p-values and significances
    within 1e-12."""

    def test_fisher_z_matches_inverse_reference(self):
        # |z| up to 5, which `--max-cond none` reaches on these graphs
        rng = np.random.default_rng(31)
        sizes = dict.fromkeys(range(6), 0)
        for s in range(6):
            g = generate_random_dag(14, 1.25, seed=s)
            sm = generate_linear_nongaussian(g, m=60, seed=100 + s)
            fast, ref = PartialCorrelationOracle(sm), InverseFisherZ(sm)
            for u, v, z in _random_queries(sm.n, 600, rng):
                got, want = fast.query(u, v, z), ref.query(u, v, z)
                assert got.independent == want.independent
                assert got.p_value == pytest.approx(want.p_value, rel=0, abs=1e-12)
                sizes[len(z)] += 1
        assert min(sizes.values()) > 500

    def test_fisher_z_deep_conditioning_matches_inverse_reference(self):
        # the pivots' product underflows without the power-of-two rescaling
        # from about |z| = 10 on; the inverse has no such limit
        rng = np.random.default_rng(37)
        g = generate_random_dag(24, 1.25, seed=3)
        sm = generate_linear_nongaussian(g, m=200, seed=103)
        fast, ref = PartialCorrelationOracle(sm), InverseFisherZ(sm)
        for u, v, z in _random_queries(sm.n, 200, rng, sizes=range(6, 21)):
            got, want = fast.query(u, v, z), ref.query(u, v, z)
            assert got.independent == want.independent
            assert got.p_value == pytest.approx(want.p_value, rel=0, abs=1e-12)

    def test_fisher_z_degenerate_columns(self):
        # columns 0, 4, 5, 6 are x, a copy, 2x and -x; 2 and 8 are w and 4w;
        # 7 is constant. Power-of-two multiples keep the correlations exact.
        rng = np.random.default_rng(8)
        x, y, w, t = rng.random((4, 300))
        cols = [x, y, w, t, x.copy(), 2.0 * x, -x, np.full(300, 0.5), 4.0 * w]
        family = {0: "x", 4: "x", 5: "x", 6: "x", 2: "w", 8: "w"}
        sm = SampleMatrix(np.column_stack(cols), "continuous")
        fast, ref = PartialCorrelationOracle(sm), InverseFisherZ(sm)
        raised_collinear = 0
        for size in range(5):
            for z in itertools.combinations(range(sm.n), size):
                for u, v in itertools.combinations(range(sm.n), 2):
                    if u in z or v in z:
                        continue
                    got, want = _outcome(fast, u, v, z), _outcome(ref, u, v, z)
                    if isinstance(want, type):
                        # singular for the inverse is singular here too
                        assert got is want, (u, v, z)
                        raised_collinear += 7 not in (u, v) + z
                        continue
                    tags = [family[c] for c in (u, v) + z if c in family]
                    if z and len(set(tags)) < len(tags):
                        # an exactly collinear set always raises; the inverse
                        # misses some of these when the rounded correlation
                        # matrix is off symmetric by an ulp
                        assert got is SingularConditioningError, (u, v, z)
                        continue
                    assert got.independent == want.independent, (u, v, z)
                    assert got.p_value == pytest.approx(want.p_value, rel=0, abs=1e-12)
        assert raised_collinear > 500

    def test_g2_oracle_matches_chi2_sf(self, monkeypatch):
        rng = np.random.default_rng(5)
        # m = 1000 decides |z| <= 2 for k = 3 and refuses |z| = 3
        sm = generate_discrete(generate_random_dag(10, 1.25, seed=3), m=1000, seed=4)
        queries = list(_random_queries(sm.n, 300, rng))
        fast = [_outcome(GSquaredOracle(sm), u, v, z) for u, v, z in queries]
        monkeypatch.setattr(sada.citest, "chi2_sf", stats.chi2.sf)
        ref = [_outcome(GSquaredOracle(sm), u, v, z) for u, v, z in queries]
        for got, want in zip(fast, ref):
            if isinstance(want, type):
                assert got is want
            else:
                assert got.independent == want.independent
                assert got.p_value == pytest.approx(want.p_value, rel=0, abs=1e-12)
        decided = {len(z) for (_, _, z), got in zip(queries, fast) if isinstance(got, CiVerdict)}
        assert decided == {0, 1, 2}
        assert UnreliableTestError in fast

    def test_lingam_wald_p_values_match_chi2_sf(self, monkeypatch):
        runs = []
        for s in range(4):
            g = generate_random_dag(8, 1.5, seed=s)
            runs.append(generate_linear_nongaussian(g, m=60, seed=50 + s))
        fast = [solve_lingam(sm, range(sm.n)) for sm in runs]
        monkeypatch.setattr(sada.solvers, "chi2_sf", stats.chi2.sf)
        ref = [solve_lingam(sm, range(sm.n)) for sm in runs]
        for got, want in zip(fast, ref):
            assert got.pairs() == want.pairs()
            for e in got:
                assert e.significance == pytest.approx(
                    want.significance(e.parent, e.child), rel=0, abs=1e-12)
        assert all(len(es) > 0 for es in fast)


class TestTails:
    """sada's chi-squared and two-sided normal upper tails against
    scipy.stats: relative error at most 1e-12 (1e-10 at dof 10^4) wherever
    scipy's value is at least 1e-300, and a block carries a single call's
    bits."""

    @staticmethod
    def grid(dof):
        # the edges, a sweep past the far tail, and a close one around dof
        return np.concatenate(([0.0, 5e-324, 1e4, math.inf],
                               np.linspace(0, 3 * dof + 40, 301)[1:],
                               dof * np.linspace(0.5, 1.5, 101),
                               np.geomspace(1e-8, 3000, 200)))

    @pytest.mark.parametrize("dof", [*range(1, 65), 100, 1000, 10_000])
    def test_chi2_matches_scipy(self, dof):
        x = self.grid(dof)
        got = np.array([chi2_sf(float(v), dof) for v in x])
        assert got[0] == 1.0 and got[3] == 0.0
        want = stats.chi2.sf(x, dof)
        seen = want >= 1e-300
        tol = 1e-12 if dof <= 1000 else 1e-10
        assert (np.abs(got[seen] - want[seen]) <= tol * want[seen]).all()
        assert (got[~seen] < 1e-290).all()
        # the block path, at one dof and at a dof per entry
        assert chi2_sf(x, dof).tolist() == got.tolist()
        assert chi2_sf(x, np.full(len(x), dof)).tolist() == got.tolist()

    def test_mixed_dof_block_matches_single_calls(self):
        rng = np.random.default_rng(41)
        dof = rng.integers(0, 40, 2000)
        x = rng.exponential(1.0, 2000) * np.maximum(dof, 1) * rng.choice([0.0, 0.5, 1.0, 2.0], 2000)
        x[:4] = (math.nan, math.inf, 0.0, -1.0)
        dof[:2] = 0
        got = chi2_sf(x, dof)
        want = [chi2_sf(float(v), int(d)) for v, d in zip(x, dof)]
        assert np.array_equal(got, want, equal_nan=True)
        assert math.isnan(got[0]) and got[1] == 0.0 and got[2] == 1.0 and got[3] == 1.0
        # short blocks, with one dof and with a dof per entry
        for size in (0, 1, 5, 15, 16):
            assert np.array_equal(chi2_sf(x[:size], 7), [chi2_sf(float(v), 7) for v in x[:size]],
                                  equal_nan=True)
            assert np.array_equal(chi2_sf(x[:size], dof[:size]), want[:size], equal_nan=True)
        # dof 0 is the point mass at 0
        assert (got[dof == 0][1:] == 0.0).all() and chi2_sf(2.0, 0) == 0.0

    def test_normal_matches_scipy(self):
        stat = np.concatenate((np.linspace(-38, 38, 4001), np.geomspace(1e-12, 1, 100)))
        want = 2 * stats.norm.sf(np.abs(stat))
        got = np.array([two_sided_normal_sf(float(s)) for s in stat])
        seen = want >= 1e-300
        assert (np.abs(got[seen] - want[seen]) <= 1e-12 * want[seen]).all()
        assert (got[~seen] < 1e-290).all() and two_sided_normal_sf(0.0) == 1.0


def test_import_loads_no_scipy():
    # scipy costs a quarter of a second to import and sada needs none of it,
    # so a fresh interpreter must not pull in any part of it. sada.cli
    # imports every other module of the package.
    src = Path(sada.citest.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = "import sada.cli, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
