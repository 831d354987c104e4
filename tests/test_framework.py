import numpy as np
import pytest

from sada.citest import ExactCiOracle, GSquaredOracle, PartialCorrelationOracle
from sada.framework import (
    FrameworkError,
    SadaConfig,
    _decode_pair,
    _grow_from_seed,
    _pair_row_starts,
    clean_unmerged,
    find_causal_cut,
    merge_results,
    remove_conflicts_and_redundancy,
    run_sada,
)
from sada.graph import CausalCut, Dag, generate_random_dag
from sada.solvers import EdgeSet, make_oracle_solver, solve_lingam
from sada.synth import generate_discrete, generate_linear_nongaussian

from conftest import NINE_NODE_EDGES, TableOracle, bits, random_small_dags, relabelled, value_id
from oracles import grow_from_seed_reference, remove_conflicts_and_redundancy_reference
from property_suites import _AlwaysDependent, check_merge_invariants


def edge_set(*triples):
    out = EdgeSet()
    for p, c, s in triples:
        out.add(p, c, s)
    return out


class TestConfig:
    def test_defaults(self):
        cfg = SadaConfig()
        assert (cfg.theta, cfg.k, cfg.max_cond, cfg.alpha_level) == (10, 1, 3, 0.05)

    def test_theta_floor(self):
        with pytest.raises(FrameworkError):
            SadaConfig(theta=1)

    def test_k_floor(self):
        with pytest.raises(FrameworkError):
            SadaConfig(k=0)

    def test_alpha_bounds(self):
        # a non-real value or a bool is refused like an out-of-range one
        for bad in (0.0, 1.0, -0.1, float("nan"), "0.05", None, True, 0.05j):
            with pytest.raises(FrameworkError, match="alpha_level"):
                SadaConfig(alpha_level=bad)
        assert SadaConfig(alpha_level=np.float32(0.25)).alpha_level == np.float32(0.25)

    def test_max_cond_validation(self):
        with pytest.raises(FrameworkError):
            SadaConfig(max_cond=-1)
        assert SadaConfig(max_cond=None).max_cond is None
        assert SadaConfig(max_cond=0).max_cond == 0

    def test_counts_must_be_integral(self):
        # a whole float or a bool is refused, naming the field; before, a
        # float passed and run_sada later failed on it with a TypeError
        for name, bad in (("theta", 10.0), ("k", 2.0), ("max_cond", 3.0),
                          ("theta", True), ("k", True), ("max_cond", False),
                          ("max_cond", np.True_), ("k", 1.5), ("theta", "10")):
            with pytest.raises(FrameworkError, match=name):
                SadaConfig(**{name: bad})
        cfg = SadaConfig(theta=np.int64(4), k=np.int32(2), max_cond=np.int8(0))
        assert (cfg.theta, cfg.k, cfg.max_cond) == (4, 2, 0)


class TestGrowFromSeed:
    def test_nine_node_reference_split(self, nine_node):
        # seed pair (0, 1) is marginally independent; the assignment loop
        # then lands every variable exactly as in the reference trace
        oracle = ExactCiOracle(nine_node)
        sep = oracle.find_separator(0, 1, bits(range(2, 9)), None)
        assert sep == frozenset()
        v1, cut, v2 = _grow_from_seed(oracle, list(range(9)), 0, 1, sep, None)
        assert v1 == {0, 2, 5}
        assert cut == {3, 6, 7}
        assert v2 == {1, 4, 8}

    def test_refinement_moves_member_to_v2(self):
        # 2 and 3 both land in the cut set during growth; once 3 is
        # available as a conditioner, 2 separates from all of V1 and moves
        oracle = TableOracle(independent=[(0, 1, ()), (0, 2, (3,))])
        v1, cut, v2 = _grow_from_seed(oracle, [0, 1, 2, 3], 0, 1, frozenset(), None)
        assert v1 == {0}
        assert cut == {3}
        assert v2 == {1, 2}

    def test_refinement_moves_member_to_v1(self):
        oracle = TableOracle(independent=[(0, 1, ()), (1, 2, (3,))])
        v1, cut, v2 = _grow_from_seed(oracle, [0, 1, 2, 3], 0, 1, frozenset(), None)
        assert v1 == {0, 2}
        assert cut == {3}
        assert v2 == {1}

    def test_separable_from_both_sides_joins_v2(self):
        # the V1 check runs first, so a variable separable from everything
        # goes to V2
        oracle = TableOracle(independent=[(0, 1, ()), (0, 2, ()), (1, 2, ())])
        v1, cut, v2 = _grow_from_seed(oracle, [0, 1, 2], 0, 1, frozenset(), None)
        assert v1 == {0}
        assert cut == set()
        assert v2 == {1, 2}


def _growth_cases(make_oracle, cap, seed, pairs_per_graph=3):
    """(graph, oracle factory, seed pair, separator) for up to a few separable
    pairs of each seeded small DAG and of two relabelled n = 60 DAGs."""
    rng = np.random.default_rng(seed)
    graphs = random_small_dags(20, max_n=9, seed=seed) + [
        relabelled(generate_random_dag(60, 1.25, seed=seed + s), rng) for s in range(2)]
    for g in graphs:
        probe = make_oracle(g)
        found = 0
        for i in rng.permutation(g.n * g.n):
            u, v = divmod(int(i), g.n)
            if u >= v:
                continue
            sep = probe.find_separator(u, v, bits(range(g.n)) & ~bits({u, v}), cap)
            if sep is not None:
                yield g, u, v, sep
                found += 1
                if found == pairs_per_graph:
                    break


class TestGrowthMatchesPairwiseReference:
    """`_grow_from_seed`, testing a whole side per `separable` call, returns
    the same (V1, C, V2) as growth with one separator search per pair."""

    def _check(self, make_oracle, cap, seed):
        cases = 0
        for g, u, v, sep in _growth_cases(make_oracle, cap, seed):
            order = list(range(g.n))
            got = _grow_from_seed(make_oracle(g), order, u, v, sep, cap)
            want = grow_from_seed_reference(make_oracle(g), order, u, v, sep, cap)
            assert got == want, (g, u, v, sep, cap)
            cases += 1
        assert cases >= 20

    @pytest.mark.parametrize("cap", [0, 1, 3, None])
    def test_exact_oracle(self, cap):
        self._check(ExactCiOracle, cap, seed=41)

    @pytest.mark.parametrize("kind", ["continuous", "discrete"])
    def test_statistical_oracles(self, kind):
        def make_oracle(g):
            if kind == "continuous":
                return PartialCorrelationOracle(generate_linear_nongaussian(g, m=120, seed=g.n))
            return GSquaredOracle(generate_discrete(g, m=300, seed=g.n))
        self._check(make_oracle, 3, seed=43)


class TestPairDecode:
    @pytest.mark.parametrize("n", [3, 4, 7, 30])
    def test_enumerates_row_major_pairs(self, n):
        starts = _pair_row_starts(n)
        decoded = [_decode_pair(k, starts) for k in range(n * (n - 1) // 2)]
        assert decoded == [(i, j) for i in range(n) for j in range(i + 1, n)]


class TestFindCausalCut:
    def test_two_disconnected_chains(self):
        g = Dag(4, [(0, 1), (2, 3)])
        cfg = SadaConfig(theta=2, max_cond=None)
        cut = find_causal_cut(ExactCiOracle(g), {0, 1, 2, 3}, cfg, rng=np.random.default_rng(5))
        assert cut is not None
        assert cut.cut_set == frozenset()
        assert {cut.left, cut.right} == {frozenset({0, 1}), frozenset({2, 3})}

    def test_complete_graph_returns_none(self):
        g = Dag(3, [(0, 1), (0, 2), (1, 2)])
        cfg = SadaConfig(theta=2, max_cond=None)
        assert find_causal_cut(ExactCiOracle(g), {0, 1, 2}, cfg, rng=np.random.default_rng(5)) is None

    def test_nine_node_best_of_restarts(self, nine_node):
        # restarts keep the cut with the largest small side; the graph
        # admits balanced 3/3 splits, so with many restarts one must win
        cfg = SadaConfig(theta=2, k=40, max_cond=None)
        cut = find_causal_cut(ExactCiOracle(nine_node), set(range(9)), cfg,
                              rng=np.random.default_rng(7))
        assert cut is not None
        assert cut.min_side == 3
        assert cut.left | cut.cut_set | cut.right == frozenset(range(9))

    def test_no_true_edge_severed(self, nine_node):
        # adjacent variables are never separable, so no exact-oracle cut can
        # place the endpoints of a true edge on opposite sides
        oracle = ExactCiOracle(nine_node)
        cfg = SadaConfig(theta=2, k=3, max_cond=None)
        for seed in range(10):
            cut = find_causal_cut(oracle, set(range(9)), cfg, rng=np.random.default_rng(seed))
            if cut is None:
                continue
            for u, v in NINE_NODE_EDGES:
                crossing = (u in cut.left and v in cut.right) or (
                    u in cut.right and v in cut.left)
                assert not crossing

    def test_too_few_variables(self, nine_node):
        with pytest.raises(FrameworkError):
            find_causal_cut(ExactCiOracle(nine_node), {0, 1}, SadaConfig(),
                            rng=np.random.default_rng(0))

    def test_deterministic_given_seed(self, nine_node):
        oracle = ExactCiOracle(nine_node)
        cfg = SadaConfig(theta=2, k=5, max_cond=None)
        first = find_causal_cut(oracle, set(range(9)), cfg, rng=np.random.default_rng(99))
        second = find_causal_cut(oracle, set(range(9)), cfg, rng=np.random.default_rng(99))
        assert first == second

    def test_rng_must_be_a_generator(self, nine_node):
        # the caller's Generator is the one source of randomness: a missing
        # stream or a bare seed is refused, naming rng
        for bad in (None, 99, np.random.RandomState(99)):
            with pytest.raises(FrameworkError, match="rng"):
                find_causal_cut(ExactCiOracle(nine_node), set(range(9)), SadaConfig(), rng=bad)


class TestMerge:
    def test_reversed_duplicate_keeps_stronger(self):
        g1 = edge_set((0, 1, 0.9))
        g2 = edge_set((1, 0, 0.5))
        out = merge_results(g1, g2, TableOracle(), 3)
        assert out == edge_set((0, 1, 0.9))

    def test_duplicate_pair_keeps_max_significance(self):
        out = merge_results(edge_set((0, 1, 0.3)), edge_set((0, 1, 0.8)), TableOracle(), 3)
        assert out.significance(0, 1) == 0.8

    def test_redundant_direct_edge_removed(self):
        # path 3 -> 6 -> 7 survives; the direct 3 -> 7 edge is separable
        # over the path interior and goes away
        g1 = edge_set((3, 6, 0.9), (6, 7, 0.8))
        g2 = edge_set((3, 7, 0.7))
        oracle = TableOracle(independent=[(3, 7, (6,))])
        out = merge_results(g1, g2, oracle, 3)
        assert out.pairs() == frozenset({(3, 6), (6, 7)})

    def test_dependent_direct_edge_survives(self):
        g1 = edge_set((3, 6, 0.9), (6, 7, 0.8))
        g2 = edge_set((3, 7, 0.7))
        out = merge_results(g1, g2, TableOracle(), 3)
        assert out.pairs() == frozenset({(3, 6), (6, 7), (3, 7)})

    def test_disjoint_union_untouched(self):
        g1 = edge_set((0, 1, 0.6), (1, 2, 0.4))
        g2 = edge_set((5, 6, 0.9))
        out = merge_results(g1, g2, TableOracle(), 3)
        assert out == edge_set((0, 1, 0.6), (1, 2, 0.4), (5, 6, 0.9))

    def test_three_cycle_breaks_at_weakest(self):
        g1 = edge_set((0, 1, 0.9), (1, 2, 0.8))
        g2 = edge_set((2, 0, 0.7))
        out = merge_results(g1, g2, TableOracle(), 3)
        assert out.pairs() == frozenset({(0, 1), (1, 2)})

    def test_long_cycle_breaks_at_weakest(self):
        g1 = edge_set((0, 1, 0.9), (1, 2, 0.8), (2, 3, 0.75))
        g2 = edge_set((3, 0, 0.2))
        out = merge_results(g1, g2, TableOracle(), 3)
        assert out.pairs() == frozenset({(0, 1), (1, 2), (2, 3)})

    def test_redundancy_respects_path_length_cap(self):
        # an 8-step detour is past the depth limit, so the direct edge stays
        # even though the oracle would separate the endpoints
        chain = [(i, i + 1, 0.9) for i in range(8)]
        g1 = edge_set(*chain)
        g2 = edge_set((0, 8, 0.5))
        oracle = TableOracle(independent=[(0, 8, tuple(range(1, 8)))])
        # no cap, so only the path length can keep the separator unfound
        out = merge_results(g1, g2, oracle, None)
        assert (0, 8) in out

    def test_invariant_suite(self):
        assert check_merge_invariants(num_cases=2000, seed=11) == 2000

    def test_clean_unmerged_cleans_only_an_uncut_run(self):
        # with no accepted cut the one leaf's raw output gets the merge
        # cleanup; after a cut the merged root is clean and comes back as is
        edges = edge_set((0, 1, 0.9), (1, 2, 0.8), (2, 0, 0.7),
                         (3, 6, 0.9), (6, 7, 0.8), (3, 7, 0.6))
        oracle = TableOracle(independent=[(3, 7, (6,))])
        want = remove_conflicts_and_redundancy(edges, oracle, 3)
        assert want.pairs() == {(0, 1), (1, 2), (3, 6), (6, 7)}
        assert clean_unmerged(edges, [], oracle, 3) == want
        cut = CausalCut(frozenset({0, 1, 2}), frozenset(), frozenset({3, 6, 7}))
        kept = clean_unmerged(edges, [cut], oracle, 3)
        assert kept is edges and len(kept) == 6


class RecordingOracle:
    """Passes separator searches through to `inner` and records each call."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def find_separator(self, u, v, candidates, max_cond):
        self.calls.append((u, v, candidates, max_cond))
        return self.inner.find_separator(u, v, candidates, max_cond)


def random_cleanup_case(rng, kind):
    """A seeded edge set over n <= 40 nodes with cycles and reversed pairs,
    and an oracle of the given kind: exact d-separation on a random DAG
    whose edges all appear in the set, always dependent, a random table
    of single-variable separators, or the exact case with its ids spread
    over 0..4n - 1, as merges deep in a run see them."""
    n = int(rng.integers(5, 41))
    truth = generate_random_dag(n, float(rng.uniform(0.8, 2.5)), seed=rng)
    edges = EdgeSet()
    for u, v in truth.edges:
        edges.add(u, v, float(rng.random()))
    for _ in range(int(rng.integers(0, 2 * n))):
        u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
        edges.add(u, v, float(rng.random()))
    if kind == "sparse":
        ids = [int(x) for x in rng.choice(4 * n, size=n, replace=False)]
        return relabelled_case(edges, truth, ids, 4 * n)
    if kind == "exact":
        oracle = ExactCiOracle(truth)
    elif kind == "dependent":
        oracle = _AlwaysDependent()
    else:
        oracle = TableOracle(independent=[
            (u, v, (w,)) for u, v in edges.pairs() for w in range(n)
            if w not in (u, v) and rng.random() < 0.1])
    return edges, oracle


def relabelled_case(edges, truth, ids, n):
    """The edge set and an exact oracle on the truth DAG, both with id w
    renamed ids[w], over variables 0..n-1."""
    moved = EdgeSet((ids[p], ids[c], s) for p, c, s in edges)
    return moved, ExactCiOracle(Dag(n, [(ids[u], ids[v]) for u, v in truth.edges]))


CLEANUP_ORACLES = ("exact", "dependent", "table", "sparse")


class TestCleanupDifferential:
    @pytest.mark.parametrize("max_cond", [3, None])
    @pytest.mark.parametrize("kind", CLEANUP_ORACLES)
    def test_matches_reference(self, kind, max_cond):
        # same output and the very same separator searches, in order, as the
        # unpruned cleanup with a full reachability scan
        rng = np.random.default_rng([20261018, CLEANUP_ORACLES.index(kind), max_cond or 0])
        removed = 0
        for case in range(25):
            edges, oracle = random_cleanup_case(rng, kind)
            want_log, got_log = RecordingOracle(oracle), RecordingOracle(oracle)
            want = remove_conflicts_and_redundancy_reference(edges, want_log, max_cond)
            got = remove_conflicts_and_redundancy(edges, got_log, max_cond)
            assert got == want, f"case {case}"
            assert got_log.calls == want_log.calls, f"case {case}"
            removed += len(edges) - len(got)
        assert removed > 0

    @pytest.mark.parametrize("max_cond", [3, None])
    def test_relabelling_relabels_the_output(self, max_cond):
        # with distinct significances no step of the cleanup breaks a tie
        # by id, so renaming the ids, in the edge set and in the truth
        # alike, renames the output
        rng = np.random.default_rng([20261019, max_cond or 0])
        for case in range(25):
            edges, oracle = random_cleanup_case(rng, "exact")
            sigs = [e.significance for e in edges]
            assert len(set(sigs)) == len(sigs)
            truth = oracle.graph
            n = 4 * truth.n
            ids = [int(x) for x in rng.choice(n, size=truth.n, replace=False)]
            moved, moved_oracle = relabelled_case(edges, truth, ids, n)
            want, _ = relabelled_case(remove_conflicts_and_redundancy(edges, oracle, max_cond),
                                      truth, ids, n)
            assert remove_conflicts_and_redundancy(moved, moved_oracle, max_cond) == want, \
                f"case {case}"


class OracleRun:
    """Bundle of one exact-oracle run's output, its accepted cuts, and the
    variable set of every solver call."""

    def __init__(self, g, cfg, seed, vars_=None):
        self.trace = []
        self.leaves = []
        oracle_solver = make_oracle_solver(g)

        def solver(data, variables):
            self.leaves.append(frozenset(variables))
            return oracle_solver(data, variables)

        vs = range(g.n) if vars_ is None else vars_
        self.result = run_sada(None, vs, cfg, solver, ExactCiOracle(g),
                               rng=np.random.default_rng(seed), trace=self.trace)


class TestRunSada:
    def test_base_case_hits_solver_once(self, nine_node):
        cfg = SadaConfig(theta=10, max_cond=None)
        run = OracleRun(nine_node, cfg, 0)
        assert run.result.pairs() == frozenset(NINE_NODE_EDGES)
        assert run.trace == []
        assert run.leaves == [frozenset(range(9))]

    def test_recursive_run_recovers_truth(self, nine_node):
        cfg = SadaConfig(theta=4, max_cond=None)
        run = OracleRun(nine_node, cfg, 3)
        assert run.result.pairs() == frozenset(NINE_NODE_EDGES)
        assert len(run.trace) >= 1
        # each cut partitions the root or a subproblem of an earlier cut
        subproblems = {frozenset(range(9))}
        for cut in run.trace:
            assert isinstance(cut, CausalCut)
            assert cut.left and cut.right
            assert cut.left | cut.cut_set | cut.right in subproblems
            subproblems |= {cut.left | cut.cut_set, cut.right | cut.cut_set}

    def test_subproblem_shrinkage(self, nine_node):
        cfg = SadaConfig(theta=4, max_cond=None)
        run = OracleRun(nine_node, cfg, 3)
        for cut in run.trace:
            parent = len(cut.left | cut.cut_set | cut.right)
            assert len(cut.left | cut.cut_set) < parent
            assert len(cut.right | cut.cut_set) < parent

    def test_exact_oracle_recovery_smoke(self):
        for seed in range(5):
            g = generate_random_dag(30, 1.0, seed=seed)
            cfg = SadaConfig(theta=10, max_cond=None)
            run = OracleRun(g, cfg, 1000 + seed)
            assert run.result.pairs() == frozenset(g.edges), f"dag seed {seed}"

    def test_exact_oracle_recovery_relabelled_n300(self):
        g = relabelled(generate_random_dag(300, 1.25, seed=300), np.random.default_rng(301))
        assert g.topological_order() != list(range(300))
        cfg = SadaConfig(theta=10, max_cond=None)
        out = run_sada(None, range(300), cfg, make_oracle_solver(g), ExactCiOracle(g),
                       rng=np.random.default_rng(302))
        assert out.pairs() == frozenset(g.edges)

    def test_exact_oracle_recovery_relabelled_n1000(self):
        g = relabelled(generate_random_dag(1000, 1.25, seed=1000), np.random.default_rng(1001))
        assert g.topological_order() != list(range(1000))
        cfg = SadaConfig(theta=10, max_cond=None)
        out = run_sada(None, range(1000), cfg, make_oracle_solver(g), ExactCiOracle(g),
                       rng=np.random.default_rng(1002))
        assert out.pairs() == frozenset(g.edges)

    def test_complete_graph_falls_back_to_full_solve(self):
        edges = [(u, v) for v in range(12) for u in range(v)]
        g = Dag(12, edges)
        cfg = SadaConfig(theta=10, max_cond=None)
        run = OracleRun(g, cfg, 1)
        assert run.result.pairs() == frozenset(edges)
        assert run.trace == []
        assert [len(vs) for vs in run.leaves] == [12]

    def test_output_acyclic_and_in_range(self, nine_node):
        cfg = SadaConfig(theta=3, max_cond=None)
        for seed in range(6):
            run = OracleRun(nine_node, cfg, seed)
            Dag(9, run.result.pairs())
            assert {x for pair in run.result.pairs() for x in pair} <= set(range(9))

    def test_deterministic_given_seed(self, nine_node):
        cfg = SadaConfig(theta=4, max_cond=None)
        a = OracleRun(nine_node, cfg, 42)
        b = OracleRun(nine_node, cfg, 42)
        assert a.result == b.result
        assert a.trace == b.trace
        assert a.leaves == b.leaves

    def test_variable_subset_run(self, nine_node):
        cfg = SadaConfig(theta=2, max_cond=None)
        run = OracleRun(nine_node, cfg, 8, vars_={0, 2, 5, 6})
        true_sub = {(u, v) for u, v in NINE_NODE_EDGES
                    if {u, v} <= {0, 2, 5, 6}}
        assert run.result.pairs() == frozenset(true_sub)

    def test_empty_variables_rejected(self, nine_node):
        with pytest.raises(FrameworkError):
            run_sada(None, [], SadaConfig(), make_oracle_solver(nine_node),
                     ExactCiOracle(nine_node), rng=np.random.default_rng(0))

    def test_out_of_range_variable_rejected(self, nine_node):
        data = generate_linear_nongaussian(Dag(3, [(0, 1)]), 50, seed=0)
        with pytest.raises(FrameworkError):
            run_sada(data, {0, 5}, SadaConfig(), make_oracle_solver(nine_node),
                     ExactCiOracle(nine_node), rng=np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [0.5, 2.0, np.float64(3.0), True, -1, "4", None], ids=value_id)
    def test_non_integral_or_negative_variable_rejected(self, nine_node, bad):
        # a float, even a whole one, or a bool is refused, not truncated,
        # by the driver and by the cut search alike
        data = generate_linear_nongaussian(nine_node, 50, seed=0)
        for vs in ([bad, 5, 6, 7], [0.5, 1.5, 2.5, 3.5]):
            with pytest.raises(FrameworkError, match="variable ids must be nonnegative integers"):
                run_sada(data, vs, SadaConfig(), solve_lingam, PartialCorrelationOracle(data),
                         rng=np.random.default_rng(0))
            with pytest.raises(FrameworkError, match="variable ids must be nonnegative integers"):
                find_causal_cut(ExactCiOracle(nine_node), vs, SadaConfig(),
                                rng=np.random.default_rng(0))

    def test_rng_must_be_a_generator(self, nine_node):
        # a missing stream or a bare seed is refused, naming rng
        for bad in (None, 42, np.random.RandomState(42)):
            with pytest.raises(FrameworkError, match="rng"):
                run_sada(None, range(9), SadaConfig(), make_oracle_solver(nine_node),
                         ExactCiOracle(nine_node), rng=bad)

    def test_statistical_end_to_end(self, nine_node):
        data = generate_linear_nongaussian(nine_node, 2000, seed=17)
        oracle = PartialCorrelationOracle(data)
        cfg = SadaConfig(theta=4, max_cond=3)
        out = run_sada(data, range(9), cfg, solve_lingam, oracle, rng=np.random.default_rng(17))
        Dag(9, out.pairs())
        assert {x for pair in out.pairs() for x in pair} <= set(range(9))
