import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import sada.citest
import sada.solvers

from sada.graph import Dag, bit_ids, generate_random_dag
from sada.solvers import solve_lingam
from sada.synth import SampleMatrix, generate_discrete, generate_linear_nongaussian, sample_from_cpts
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
)

from conftest import bits, random_small_dags, value_id
from oracles import exists_separator_brute, g2_from_tables_reference

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

    def test_pool_memo_reused_across_pairs(self, nine_node):
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

    def test_pool_memo_hit_still_checks_the_pair(self, nine_node):
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

    def test_pool_out_of_range_is_never_remembered(self, chain3):
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

    @pytest.mark.parametrize("vs, pool, fault", [
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
    ])
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
        # 4 separates from 0 only given both common parents 1 and 2, so the
        # set search does not reach it; under a cap of 1 no separator fits
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


def _scipy_stats_chdtrc(df, x):
    return stats.chi2.sf(x, df)


class TestScipyStatsEquivalence:
    """The oracles and solvers evaluate p-values with scipy.special ufuncs and
    partial correlations by pivot elimination; these pin them to the
    scipy.stats and matrix-inverse formulas they replace."""

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

    def test_g2_oracle_matches_chi2_sf_exactly(self, monkeypatch):
        rng = np.random.default_rng(5)
        # m = 1000 decides |z| <= 2 for k = 3 and refuses |z| = 3
        sm = generate_discrete(generate_random_dag(10, 1.25, seed=3), m=1000, seed=4)
        queries = list(_random_queries(sm.n, 300, rng))
        fast = [_outcome(GSquaredOracle(sm), u, v, z) for u, v, z in queries]
        monkeypatch.setattr(sada.citest, "chdtrc", _scipy_stats_chdtrc)
        ref = [_outcome(GSquaredOracle(sm), u, v, z) for u, v, z in queries]
        assert fast == ref
        decided = {len(z) for (_, _, z), got in zip(queries, fast) if isinstance(got, CiVerdict)}
        assert decided == {0, 1, 2}
        assert UnreliableTestError in fast

    def test_lingam_wald_p_values_match_chi2_sf_exactly(self, monkeypatch):
        runs = []
        for s in range(4):
            g = generate_random_dag(8, 1.5, seed=s)
            runs.append(generate_linear_nongaussian(g, m=60, seed=50 + s))
        fast = [solve_lingam(sm, range(sm.n)) for sm in runs]
        monkeypatch.setattr(sada.solvers, "chdtrc", _scipy_stats_chdtrc)
        ref = [solve_lingam(sm, range(sm.n)) for sm in runs]
        assert fast == ref
        assert all(len(es) > 0 for es in fast)


def test_import_does_not_load_scipy_stats():
    # scipy.stats costs over half a second to import; sada needs only
    # scipy.special, so a fresh interpreter must not pull it in. sada.cli
    # imports every other module of the package.
    src = Path(sada.citest.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", "import sada.cli, sys; print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
