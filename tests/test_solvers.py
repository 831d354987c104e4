import hashlib

import numpy as np
import pytest

import sada.citest
import sada.solvers as solvers
from sada.citest import G2Kernel
from sada.graph import Dag, generate_random_dag
from sada.synth import SampleMatrix, generate_discrete, generate_linear_nongaussian, sample_from_cpts
from sada.solvers import (
    Edge,
    EdgeSet,
    RankDeficientError,
    SolverError,
    make_oracle_solver,
    oracle_solver,
    solve_discrete_anm,
    solve_lingam,
)

from conftest import NINE_NODE_EDGES, relabelled, value_id
from oracles import (
    discrete_anm_four_pass,
    exogeneity_order_reference,
    lingam_regression_reference,
    oracle_solver_reference,
)

PAIR = Dag(2, [(0, 1)])
CHAIN = Dag(3, [(0, 1), (1, 2)])


def anm_pair_samples(m, seed, k=3):
    # non-uniform root plus distinct conditional modes and cyclic noise;
    # a uniform root would make the pair exactly reversible
    root = np.array([[0.5, 0.3, 0.2]])
    modes = np.array([1, 2, 0])
    table = np.full((k, k), 0.2)
    for s in range(k):
        table[s, modes[s]] = 0.6
    rng = np.random.default_rng(seed)
    return sample_from_cpts(PAIR, {0: root, 1: table}, k, m=m, rng=rng)


class TestEdgeSet:
    def test_duplicates_keep_max(self):
        es = EdgeSet()
        es.add(0, 1, 0.3)
        es.add(0, 1, 0.8)
        es.add(0, 1, 0.5)
        assert len(es) == 1
        assert es.significance(0, 1) == 0.8

    def test_iteration_sorted_and_typed(self):
        es = EdgeSet([(3, 1, 0.2), (0, 2, 0.9)])
        assert list(es) == [Edge(0, 2, 0.9), Edge(3, 1, 0.2)]
        assert (0, 2) in es and (2, 0) not in es
        assert es.pairs() == {(3, 1), (0, 2)}

    def test_union_max(self):
        # the constructor is the union: a pair in both keeps the larger
        # significance, whichever set holds it
        a = EdgeSet([(0, 1, 0.4), (1, 2, 0.9)])
        b = EdgeSet([(0, 1, 0.7)])
        for u in (EdgeSet([*a, *b]), EdgeSet([*b, *a])):
            assert u.significance(0, 1) == 0.7
            assert u.significance(1, 2) == 0.9
            assert len(u) == 2

    def test_rejects_bad_edges(self):
        es = EdgeSet()
        with pytest.raises(SolverError):
            es.add(2, 2, 0.5)
        # a significance follows the real-number rule: "0.5" and True are
        # refused, not stored as 0.5 and 1.0
        for bad in (-0.1, float("nan"), float("inf"), "0.5", True, np.True_, None):
            with pytest.raises(SolverError, match="significance must be a finite real number >= 0"):
                es.add(0, 1, bad)
        assert len(es) == 0
        es.add(0, 1, np.float32(0.5))
        assert es.significance(0, 1) == 0.5 and type(es.significance(0, 1)) is float

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -0.5, -1e-300,
                                     np.float64("nan"), np.float64("inf"), np.float64(-0.5),
                                     True, False, np.True_], ids=value_id)
    def test_significance_rule_refuses_and_converts(self, bad):
        es = EdgeSet([(0, 1, 0.5)])
        with pytest.raises(SolverError, match="significance must be a finite real number >= 0"):
            es.add(0, 1, bad)
        assert es.significance(0, 1) == 0.5
        for good in (np.float64(0.75), 2, np.int64(3), 0.0, 1e308):
            es.add(1, 2, good)
            assert type(es.significance(1, 2)) is float
        assert es.significance(1, 2) == 1e308

    @pytest.mark.parametrize("bad", [0.7, 1.0, np.float64(2.0), True, -1, np.int64(-3), "1", None],
                             ids=value_id)
    def test_non_integral_or_negative_id_is_refused(self, bad):
        for edge in ((bad, 1, 1.0), (1, bad, 1.0)):
            with pytest.raises(SolverError, match="variable id must be an integer >= 0"):
                EdgeSet([edge])
        es = EdgeSet([(np.int64(2), np.uint16(1), 0.5)])
        assert es.pairs() == {(2, 1)} and all(type(x) is int for x in next(iter(es))[:2])

    @pytest.mark.parametrize("pair", [(0.5, 1.9), (True, 1), (-1, 0), ("0", 1)], ids=value_id)
    def test_membership_refuses_a_bad_pair(self, pair):
        # a membership test takes the ids as `add` does: before, (0.5, 1.9)
        # was truncated to (0, 1) and found
        es = EdgeSet([(0, 1, 1.0)])
        with pytest.raises(SolverError, match="variable id must be an integer >= 0"):
            pair in es
        assert (np.int64(0), np.uint8(1)) in es and (np.int32(1), 0) not in es

    @pytest.mark.parametrize("pair", [(True, 2), (1.0, 2.0), (-1, 2)], ids=value_id)
    def test_significance_refuses_a_bad_pair(self, pair):
        # a lookup takes the ids as `add` does: before, (True, 2) and
        # (1.0, 2.0) both read the significance of (1, 2)
        es = EdgeSet([(1, 2, 0.5)])
        with pytest.raises(SolverError, match="variable id must be an integer >= 0"):
            es.significance(*pair)
        assert es.significance(np.int64(1), np.uint8(2)) == 0.5

    @pytest.mark.parametrize("bad", [0.5, 1.7, np.float64(1.0), True], ids=value_id)
    def test_solver_refuses_non_integral_variables(self, bad):
        sm = generate_linear_nongaussian(Dag(3, [(0, 1), (1, 2)]), m=200, noise_weight=0.3, seed=1)
        dm = generate_discrete(Dag(3, [(0, 1), (1, 2)]), m=200, seed=1)
        for call in (lambda: solve_lingam(sm, [bad, 2]), lambda: solve_discrete_anm(dm, [bad, 2]),
                     lambda: oracle_solver(Dag(3), [bad, 2])):
            with pytest.raises(SolverError, match="variable id must be an integer"):
                call()

    def test_equality(self):
        assert EdgeSet([(0, 1, 0.5)]) == EdgeSet([(0, 1, 0.5)])
        assert EdgeSet([(0, 1, 0.5)]) != EdgeSet([(0, 1, 0.4)])


class TestLingam:
    def test_pair_direction_rate(self):
        hits = 0
        for s in range(100):
            sm = generate_linear_nongaussian(PAIR, m=1000, noise_weight=0.3, seed=s)
            if solve_lingam(sm, {0, 1}).pairs() == {(0, 1)}:
                hits += 1
        assert hits >= 80

    def test_independent_columns_mostly_empty(self):
        empty = 0
        for s in range(100):
            sm = generate_linear_nongaussian(Dag(3), m=1000, seed=200 + s)
            if len(solve_lingam(sm, {0, 1, 2})) == 0:
                empty += 1
        assert empty >= 80

    def test_small_variable_sets_empty(self):
        sm = generate_linear_nongaussian(PAIR, m=50, seed=0)
        assert len(solve_lingam(sm, {0})) == 0
        assert len(solve_lingam(sm, set())) == 0

    def test_chain_behaviour(self):
        # deflation pushes later pair decisions to effective noise weight
        # sqrt(1 + w^2), where the tanh contrast is weak; the root edge and a
        # floor on exact recovery are the stable facts
        root_edge = exact = 0
        for s in range(100):
            sm = generate_linear_nongaussian(CHAIN, m=1000, seed=s)
            es = solve_lingam(sm, {0, 1, 2})
            root_edge += (0, 1) in es
            exact += es.pairs() == {(0, 1), (1, 2)}
        assert root_edge >= 85
        assert exact >= 35

    def test_output_is_acyclic_and_in_vars(self):
        g = generate_random_dag(8, 1.25, seed=77)
        sm = generate_linear_nongaussian(g, m=400, seed=78)
        es = solve_lingam(sm, {1, 2, 4, 5, 7})
        assert {x for pair in es.pairs() for x in pair} <= {1, 2, 4, 5, 7}
        Dag(8, [(e.parent, e.child) for e in es])  # raises on a cycle

    def test_significance_is_one_minus_p(self):
        sm = generate_linear_nongaussian(PAIR, m=500, seed=3)
        es = solve_lingam(sm, {0, 1})
        for e in es:
            assert 0.0 <= e.significance <= 1.0

    def test_rank_deficient(self):
        g = Dag(10)
        sm = generate_linear_nongaussian(g, m=5, seed=0)
        with pytest.raises(RankDeficientError):
            solve_lingam(sm, range(10))

    def test_input_validation(self):
        sm = generate_linear_nongaussian(PAIR, m=100, seed=0)
        with pytest.raises(SolverError):
            solve_lingam(sm, {0, 5})
        disc = SampleMatrix(np.zeros((20, 2), dtype=np.int64), "discrete", num_states=2)
        with pytest.raises(SolverError):
            solve_lingam(disc, {0, 1})

    def test_deterministic(self):
        g = generate_random_dag(7, 1.25, seed=31)
        sm = generate_linear_nongaussian(g, m=300, seed=32)
        assert solve_lingam(sm, range(7)) == solve_lingam(sm, range(7))

    @pytest.mark.parametrize("copy", [lambda c: c, lambda c: 2.0 * c + 1.0],
                             ids=["duplicate", "affine"])
    def test_collinear_copy_rejected(self, copy):
        # an affine copy leaves a Gram matrix that inverts without error but
        # gives the copy a 1 - R^2 of rounding size
        x = np.random.default_rng(0).laplace(size=(60, 4))
        x[:, 3] = copy(x[:, 0])
        with pytest.raises(RankDeficientError):
            solve_lingam(SampleMatrix(x, "continuous"), range(4))

    def test_constant_column_rejected(self):
        # the std of a column of 0.1 or 0.7 is about 1e-17, not 0, so only
        # max == min finds every constant column
        x = np.random.default_rng(0).laplace(size=(60, 6))
        for value in (1.0, 0.1, 0.7, 123.456):
            for col in (0, 2, 5):
                data = x.copy()
                data[:, col] = value
                with pytest.raises(SolverError, match="constant"):
                    solve_lingam(SampleMatrix(data, "continuous"), range(6))


def laplace_columns(m, k, seed):
    return np.random.default_rng(seed).laplace(size=(m, k))


class TestExogeneityOrder:
    """The blocked scoring of `_exogeneity_order` against the one-candidate
    loop in tests/oracles.py: the same picks and, at every pick, the same
    score for every candidate to the last bit."""

    @staticmethod
    def assert_matches_reference(x):
        order, picks = exogeneity_order_reference(x)
        assert solvers._exogeneity_order(x) == order
        for work, scores in picks:
            assert np.array_equal(solvers._pick_scores(work, solvers._score_bufs(*work.shape)), scores)
        return picks

    @pytest.mark.parametrize("k", [2, 3, 4, 7, 12, 20, 29, 40])
    def test_random_laplace(self, k):
        for seed, m in enumerate(sorted({k + 1, 30, 60, 200})):
            if m > k:
                self.assert_matches_reference(laplace_columns(m, k, seed))

    @pytest.mark.parametrize("m, k", [(60, 30), (200, 45)])
    def test_picks_span_several_blocks(self, m, k):
        # at m = 60 the 30 candidates split 9 + 9 + 9 + 3; at m = 200 one
        # candidate's 45 columns overrun the float budget, so blocks take
        # the two-candidate floor and the last one holds a single candidate
        assert solvers._SCORE_BLOCK_FLOATS < m * k * k
        self.assert_matches_reference(laplace_columns(m, k, 7))

    def test_duplicate_columns_tie_and_collapse(self):
        # a duplicate pair scores exactly equal, and once one of the pair is
        # taken the other deflates to a constant; the first tied candidate wins
        ties = collapsed = 0
        for k in (2, 4, 6):
            x = laplace_columns(60, k, 5)
            x[:, k - 1] = x[:, 0]
            x[:, 2 % k] = x[:, 1 % k]
            for work, scores in self.assert_matches_reference(x):
                ties += int((scores == scores.min()).sum() > 1)
                collapsed += int((work.std(axis=0) <= 1e-12).any())
        assert ties and collapsed

    def test_solve_lingam_matches_reference_order(self, monkeypatch):
        cases = []
        for n, m, seed in ((8, 60, 41), (15, 30, 42), (30, 60, 43)):
            g = generate_random_dag(n, 1.25, seed=seed)
            sm = generate_linear_nongaussian(g, m=m, seed=seed + 100)
            cases.append((sm, range(n), solve_lingam(sm, range(n))))
        monkeypatch.setattr(solvers, "_exogeneity_order",
                            lambda x: exogeneity_order_reference(x)[0])
        for sm, vs, batched in cases:
            reference = solve_lingam(sm, vs)
            assert batched == reference
            assert len(reference) > 0


class TestLingamRegression:
    """The regression half of `solve_lingam` against the loop in
    tests/oracles.py, on the standardised samples and the order the solver
    itself computes: the same pairs and significances to the last bit, or
    the same refusal."""

    @staticmethod
    def outcomes(monkeypatch, data, variables):
        """(solver, reference) for one leaf: its edges as (parent, child,
        significance.hex()) in pair order, or the type and message of the
        refusal."""
        seen = []
        order_of = solvers._exogeneity_order

        def recording(x):
            seen.append((x, order_of(x)))
            return seen[-1][1]

        def solver():
            return [tuple(e) for e in solve_lingam(data, variables)]

        def reference():
            return sorted(lingam_regression_reference(*seen[-1], sorted(variables)))

        outcomes = []
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "_exogeneity_order", recording)
            for solve in (solver, reference):
                try:
                    outcomes.append([(p, c, sig.hex()) for p, c, sig in solve()])
                except RankDeficientError as exc:
                    outcomes.append((RankDeficientError, str(exc)))
        return outcomes

    def test_seeded_leaves(self, monkeypatch):
        # leaves of 2 to 30 of 40 variables, relabelled, at m = 60 and m = 200
        rng = np.random.default_rng(8)
        edges = 0
        for k in range(2, 31):
            g = generate_random_dag(40, 1.25, seed=k)
            for m in (60, 200):
                data = generate_linear_nongaussian(g, m=m, seed=1000 * k + m)
                variables = rng.choice(40, size=k, replace=False).tolist()
                got, want = self.outcomes(monkeypatch, data, variables)
                assert got == want, (k, m)
                edges += len(got)
        assert edges > 100

    @pytest.mark.filterwarnings("error")
    def test_exact_fit_has_an_infinite_wald(self, monkeypatch):
        # a balanced +-1 column and its copy at m = 64 standardise to
        # themselves, and 1 / 64 is exact: the child's residual, and so its
        # variance estimate, is exactly 0, which divides nothing and warns of
        # nothing
        x = np.repeat([1.0, -1.0], 32)[np.random.default_rng(3).permutation(64)]
        data = SampleMatrix(np.column_stack([x, x]), "continuous")
        walds = []
        tail = solvers.chi2_sf
        monkeypatch.setattr(solvers, "chi2_sf", lambda w, dof: walds.append(w) or tail(w, dof))
        got, want = self.outcomes(monkeypatch, data, [0, 1])
        assert got == want and len(got) == 1 and got[0][2] == (1.0).hex()
        assert len(walds) == 1 and np.isinf(walds[0]).all()

    @pytest.mark.parametrize("copy", [lambda c: c, lambda c: 2.0 * c + 1.0],
                             ids=["duplicate", "affine"])
    def test_collinear_refusal(self, monkeypatch, copy):
        x = np.random.default_rng(0).laplace(size=(60, 5))
        x[:, 3] = copy(x[:, 0])
        got, want = self.outcomes(monkeypatch, SampleMatrix(x, "continuous"), range(5))
        assert got == want == (RankDeficientError, "collinear predecessors in regression")


class TestDiscreteAnm:
    def test_pair_direction_rate(self):
        hits = 0
        for s in range(100):
            sm = anm_pair_samples(m=2000, seed=s)
            if solve_discrete_anm(sm, {0, 1}).pairs() == {(0, 1)}:
                hits += 1
        assert hits >= 70

    def test_independent_columns_mostly_empty(self):
        empty = 0
        for s in range(100):
            rng = np.random.default_rng(500 + s)
            sm = SampleMatrix(rng.integers(0, 3, size=(2000, 3)), "discrete", num_states=3)
            if len(solve_discrete_anm(sm, {0, 1, 2})) == 0:
                empty += 1
        assert empty >= 80

    def test_exact_copy_is_ambiguous(self):
        rng = np.random.default_rng(4)
        x = rng.integers(0, 3, size=800)
        sm = SampleMatrix(np.column_stack([x, x.copy()]), "discrete", num_states=3)
        assert len(solve_discrete_anm(sm, {0, 1})) == 0

    def test_constant_column_untouched(self):
        base = anm_pair_samples(m=2000, seed=9)
        vals = np.column_stack([base.values, np.ones(2000, dtype=np.int64)])
        sm = SampleMatrix(vals, "discrete", num_states=3)
        es = solve_discrete_anm(sm, {0, 1, 2})
        assert all(2 not in pair for pair in es.pairs())

    def test_matches_four_pass_reference(self):
        # small m makes tied row modes common; the last column is constant
        ties = edges = 0
        for s in range(24):
            k = 2 + s % 3
            g = generate_random_dag(7, 1.25, seed=s)
            sm = generate_discrete(g, m=24 + 12 * (s % 4), num_states=k, seed=100 + s)
            vals = np.column_stack([sm.values, np.full(sm.m, s % k, dtype=np.int64)])
            data = SampleMatrix(vals, "discrete", num_states=k)
            got = solve_discrete_anm(data, range(8))
            assert got == discrete_anm_four_pass(data, range(8))
            edges += len(got)
            for a in range(7):
                for b in range(7):
                    joint = np.bincount(vals[:, b] + k * vals[:, a], minlength=k * k).reshape(k, k)
                    ties += int((joint == joint.max(axis=1, keepdims=True)).sum(axis=1).max() > 1)
        assert ties > 50 and edges > 50

    # sha256 of the sorted edge pairs of a seeded n = 40 solve per state
    # count, recorded before the pairs were scored in blocks: significances
    # may move in the last bit, the pairs may not
    PAIR_DIGESTS = {
        2: "5e0d217e7affdc71820dccd1464ebab9a8fa96a49244e884aa53df2a79a91a35",
        3: "909880c68d20291c3f8cce47c58bc85f89a8ac6c2bb00590bc8ca86df6191e5f",
        4: "2ad08670d620264d9f4f4adba0903ee57a943c46f58dc39905b8ddccd4279808",
    }

    @pytest.mark.parametrize("k", sorted(PAIR_DIGESTS))
    def test_edge_pairs_are_pinned(self, k, monkeypatch):
        # blocks of 7 pairs end inside rows as well as between them, and
        # give the same edges, bit for bit, as the default blocks
        g = generate_random_dag(40, 1.25, seed=40 + k)
        sm = generate_discrete(g, m=200, num_states=k, seed=400 + k)
        got = solve_discrete_anm(sm, range(40))
        text = ";".join(f"{u}>{v}" for u, v in sorted(got.pairs()))
        assert hashlib.sha256(text.encode()).hexdigest() == self.PAIR_DIGESTS[k]
        monkeypatch.setattr(sada.citest, "G2_BLOCK_CODES", 7 * sm.m)
        assert G2Kernel(k, sm.m).block == 7
        assert solve_discrete_anm(sm, range(40)) == got

    def test_degenerate_columns_run_quietly(self):
        # a constant column, and one that uses two of four states at m = 12:
        # their tables have empty rows, zero marginals and dof 0. A numpy
        # warning would fail the test
        rng = np.random.default_rng(11)
        vals = np.column_stack([rng.integers(0, 4, 12), np.full(12, 3),
                                1 + np.arange(12) % 2, rng.integers(0, 4, 12)])
        sm = SampleMatrix(vals, "discrete", num_states=4)
        got = solve_discrete_anm(sm, range(4))
        assert got == discrete_anm_four_pass(sm, range(4))
        assert all(1 not in pair for pair in got.pairs())

    def test_small_variable_sets_empty(self):
        sm = anm_pair_samples(m=100, seed=0)
        assert len(solve_discrete_anm(sm, {1})) == 0

    def test_input_validation(self):
        sm = anm_pair_samples(m=100, seed=1)
        cont = SampleMatrix(np.random.default_rng(0).random((10, 2)), "continuous")
        with pytest.raises(SolverError):
            solve_discrete_anm(cont, {0, 1})


class TestOracleSolver:
    def test_full_and_singleton(self):
        g = Dag(9, NINE_NODE_EDGES)
        full = oracle_solver(g, range(9))
        assert full.pairs() == frozenset(NINE_NODE_EDGES)
        assert all(e.significance == 1.0 for e in full)
        assert len(oracle_solver(g, {4})) == 0

    def test_path_fragment(self):
        g = Dag(9, NINE_NODE_EDGES)
        assert oracle_solver(g, {0, 2, 6}).pairs() == {(0, 2), (2, 6)}

    def test_out_of_range(self):
        with pytest.raises(SolverError):
            oracle_solver(Dag(3), {0, 7})

    def test_factory_binds_truth(self):
        g = Dag(3, [(0, 1), (1, 2)])
        solver = make_oracle_solver(g)
        assert solver(None, {0, 1}).pairs() == {(0, 1)}

    def test_matches_the_edge_scan(self):
        # random leaves, as ids of several iterable kinds, of relabelled
        # graphs: the same edges as a scan of every true edge, and the same
        # refusal for a bad id
        rng = np.random.default_rng(2031)
        for seed in range(12):
            g = relabelled(generate_random_dag(int(rng.integers(2, 60)), 0.75 + 0.25 * (seed % 5),
                                               seed=seed), rng)
            for _ in range(20):
                leaf = [int(w) for w in rng.choice(g.n, int(rng.integers(1, g.n + 1)), replace=False)]
                for shape in (set, list, tuple, lambda ids: [np.int64(w) for w in ids]):
                    want = oracle_solver_reference(g, shape(leaf))
                    got = oracle_solver(g, shape(leaf))
                    assert got == want and list(got) == list(want), (g, leaf)
            for bad in (g.n, -1, 1.0, True, "0"):
                outcomes = []
                for solve in (oracle_solver_reference, oracle_solver):
                    with pytest.raises(SolverError) as refused:
                        solve(g, [0, bad])
                    outcomes.append(str(refused.value))
                assert outcomes[0] == outcomes[1], bad
