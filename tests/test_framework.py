import itertools

import numpy as np
import pytest

from sada.citest import CiError, ExactCiOracle, GSquaredOracle, PartialCorrelationOracle
import sada.framework
from sada.framework import (
    FrameworkError,
    SadaConfig,
    _child_stream,
    _grow_from_seed,
    discover,
    find_causal_cut,
    merge_results,
    remove_conflicts_and_redundancy,
    run_sada,
)
from sada.graph import CausalCut, CycleError, Dag, generate_random_dag, kahn_sweep, pair_ids
from sada.solvers import EdgeSet, make_oracle_solver, solve_lingam
from sada.synth import generate_discrete, generate_linear_nongaussian

from conftest import NINE_NODE_EDGES, TableOracle, bits, random_small_dags, relabelled, value_id
from oracles import (
    acyclic_closure_reference,
    grow_from_seed_reference,
    remove_conflicts_and_redundancy_reference,
)
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


CAP_REFUSERS = {
    "SadaConfig": (FrameworkError, lambda bad: SadaConfig(max_cond=bad)),
    "cleanup": (FrameworkError, lambda bad: remove_conflicts_and_redundancy(
        edge_set((0, 1, 0.9)), ExactCiOracle(Dag(3, [(0, 1), (1, 2)])), bad)),
    "find_separator": (CiError, lambda bad: ExactCiOracle(Dag(3, [(0, 1), (1, 2)]))
                       .find_separator(0, 2, 0b010, bad)),
    "separable": (CiError, lambda bad: ExactCiOracle(Dag(3, [(0, 1), (1, 2)]))
                  .separable(0, 0b100, 0b010, bad)),
}

LEVEL_REFUSERS = {
    "SadaConfig": (FrameworkError, lambda bad: SadaConfig(alpha_level=bad)),
    "PartialCorrelationOracle": (CiError, lambda bad: PartialCorrelationOracle(
        generate_linear_nongaussian(Dag(3, [(0, 1), (1, 2)]), 20, seed=0), alpha_level=bad)),
}


class TestRefusalText:
    """Each caller of the cap and level rules raises its own class with the
    one message the rule words."""

    @pytest.mark.parametrize("bad", [True, -1, 2.5, 1.0, "3"], ids=value_id)
    @pytest.mark.parametrize("caller", CAP_REFUSERS)
    def test_bad_cap(self, caller, bad):
        error, call = CAP_REFUSERS[caller]
        with pytest.raises(error) as refused:
            call(bad)
        assert type(refused.value) is error
        assert str(refused.value) == f"max_cond must be None or an integer >= 0, got {bad!r}"

    @pytest.mark.parametrize("bad", [0, 1, float("nan"), True, "0.05"], ids=value_id)
    @pytest.mark.parametrize("caller", LEVEL_REFUSERS)
    def test_bad_level(self, caller, bad):
        error, call = LEVEL_REFUSERS[caller]
        with pytest.raises(error) as refused:
            call(bad)
        assert type(refused.value) is error
        assert str(refused.value) == f"alpha_level must be a real number in (0, 1), got {bad!r}"


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
    """`pair_ids`, the one decoder of the seed-pair probe and the discrete
    ANM solver's pair blocks."""

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 30])
    def test_enumerates_row_major_pairs(self, n):
        i, j = pair_ids(np.arange(n * (n - 1) // 2), n)
        assert list(zip(i.tolist(), j.tolist())) == list(itertools.combinations(range(n), 2))

    def test_row_ends_are_exact_at_large_n(self):
        # the first and last pair of every row, where a float root one off
        # would show; the last index is (n - 2, n - 1)
        n = 100_000
        rows = np.arange(n - 1)
        first = rows * (2 * n - 1 - rows) // 2
        last = first + (n - 2 - rows)
        i, j = pair_ids(np.concatenate((first, last)), n)
        assert i.tolist() == rows.tolist() * 2
        assert j.tolist() == (rows + 1).tolist() + [n - 1] * (n - 1)


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

    @pytest.mark.parametrize("bad", [True, -1, 2.5, "3", 1.0], ids=value_id)
    def test_bad_cap_is_refused(self, bad):
        # before, -1 read as "nothing separates" and kept the redundant
        # 0 -> 2, True read as 1 and 2.5 as a cap
        edges = edge_set((0, 1, 0.9), (1, 2, 0.8), (0, 2, 0.7))
        oracle = ExactCiOracle(Dag(3, [(0, 1), (1, 2)]))
        for cleanup in (lambda: remove_conflicts_and_redundancy(edges, oracle, bad),
                        lambda: merge_results(edges, EdgeSet(), oracle, bad)):
            with pytest.raises(FrameworkError, match="max_cond must be None or an integer >= 0"):
                cleanup()

    def test_cap_none_zero_and_numpy_are_taken(self):
        edges = edge_set((0, 1, 0.9), (1, 2, 0.8), (0, 2, 0.7))
        oracle = ExactCiOracle(Dag(3, [(0, 1), (1, 2)]))
        # {1} separates 0 and 2, but not within a cap of 0
        assert remove_conflicts_and_redundancy(edges, oracle, 0) == edges
        for cap in (None, np.int64(1)):
            assert remove_conflicts_and_redundancy(edges, oracle, cap).pairs() == {(0, 1), (1, 2)}

    def test_merge_is_the_cleanup_of_the_union(self):
        # the union is taken from both sets' maps at once, without their
        # checks: it is EdgeSet's union, whichever set a shared pair's
        # larger significance is in, and neither input changes
        rng = np.random.default_rng(20261020)
        shared = 0
        for case in range(25):
            edges, oracle = random_cleanup_case(rng, "table")
            g1, g2 = EdgeSet(), EdgeSet()
            for p, c, sig in edges:
                side = rng.random()
                if side < 0.6:
                    g1.add(p, c, sig)
                if side > 0.4:
                    g2.add(p, c, float(rng.random()))
            shared += len(g1.pairs() & g2.pairs())
            before = EdgeSet(g1), EdgeSet(g2)
            want = remove_conflicts_and_redundancy(EdgeSet([*g1, *g2]), oracle, 3)
            assert merge_results(g1, g2, oracle, 3) == want, f"case {case}"
            assert merge_results(g2, g1, oracle, 3) == want, f"case {case}"
            assert (g1, g2) == before
        assert shared > 0

    def test_no_search_without_a_possible_detour(self, monkeypatch):
        # in 0 -> 1 -> 2 with 0 -> 2, only 0 -> 2 has a detour: 1 has no
        # other parent than 0, and no other child than 2
        searched = []
        search = sada.framework._simple_path_interiors

        def recorded(children, reaches, source, target, max_edges):
            searched.append((source, target))
            return search(children, reaches, source, target, max_edges)

        monkeypatch.setattr(sada.framework, "_simple_path_interiors", recorded)
        edges = edge_set((0, 1, 0.9), (1, 2, 0.8), (0, 2, 0.7))
        out = remove_conflicts_and_redundancy(edges, TableOracle(), 3)
        assert out == edges and searched == [(0, 2)]


class TestDiscover:
    def test_cleans_only_an_uncut_run(self, nine_node, monkeypatch):
        # a run that accepts no cut returns its one leaf's raw output, so
        # discover cleans it, whatever the solver
        edges = edge_set((0, 1, 0.9), (1, 2, 0.8), (2, 0, 0.7),
                         (3, 6, 0.9), (6, 7, 0.8), (3, 7, 0.6))
        oracle = TableOracle(independent=[(3, 7, (6,))])
        want = remove_conflicts_and_redundancy(edges, oracle, 3)
        assert want.pairs() == {(0, 1), (1, 2), (3, 6), (6, 7)}
        got, cuts = discover(None, range(8), SadaConfig(), lambda data, vs: edges,
                             oracle, np.random.default_rng(0))
        assert got == want and cuts == []

        # a merge that only unions keeps a cycle at the root of a run that
        # cut, and discover hands that root back as run_sada returned it
        monkeypatch.setattr(sada.framework, "merge_results",
                            lambda g1, g2, oracle, max_cond: EdgeSet([*g1, *g2]))

        def cyclic(data, vs):
            a, b = min(vs), max(vs)
            return edge_set((a, b, 0.5), (b, a, 0.4))

        cfg = SadaConfig(theta=4, max_cond=None)
        raw_cuts = []
        raw = run_sada(None, range(9), cfg, cyclic, ExactCiOracle(nine_node),
                       np.random.default_rng(3), trace=raw_cuts)
        got, cuts = discover(None, range(9), cfg, cyclic, ExactCiOracle(nine_node),
                             np.random.default_rng(3))
        assert raw_cuts and cuts == raw_cuts
        assert got == raw and any((b, a) in got for a, b in got.pairs())

    def test_uncut_exact_runs_return_the_truth(self):
        # with n <= theta no cut is tried; the true subgraph is acyclic and
        # no true edge is d-separated, so the cleanup leaves it as it is
        rng = np.random.default_rng(20261019)
        cfg = SadaConfig(theta=10, max_cond=None)
        for case in range(60):
            n = int(rng.integers(2, 11))
            g = relabelled(generate_random_dag(n, float(rng.uniform(0, 2.5)), seed=rng), rng)
            edges, cuts = discover(None, range(n), cfg, make_oracle_solver(g),
                                   ExactCiOracle(g), rng)
            assert cuts == []
            assert edges.pairs() == g.edges, f"case {case}"


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


def random_acyclic_case(rng, kind):
    """A seeded acyclic edge set over n <= 40 nodes, the edges of a random
    DAG under a random relabelling with distinct random significances, and
    an oracle: exact d-separation on a random subgraph of that DAG, a random
    table of single-variable separators, or the exact case with its ids
    spread over 0..4n - 1."""
    n = int(rng.integers(5, 41))
    dag = relabelled(generate_random_dag(n, float(rng.uniform(1.0, 3.0)), seed=rng), rng)
    pairs = sorted(dag.edges)
    sigs = rng.random(len(pairs))
    assert len(set(sigs)) == len(sigs)
    edges = EdgeSet((p, c, float(s)) for (p, c), s in zip(pairs, sigs))
    truth = Dag(n, [pair for pair in pairs if rng.random() < 0.7])
    if kind == "sparse":
        ids = [int(x) for x in rng.choice(4 * n, size=n, replace=False)]
        return relabelled_case(edges, truth, ids, 4 * n)
    if kind == "exact":
        return edges, ExactCiOracle(truth)
    return edges, TableOracle(independent=[
        (p, c, (w,)) for p, c in pairs for w in range(n) if w not in (p, c) and rng.random() < 0.1])


ACYCLIC_ORACLES = ("exact", "table", "sparse")


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
    @pytest.mark.parametrize("kind", ACYCLIC_ORACLES)
    def test_acyclic_sets_take_the_sweep(self, kind, max_cond, monkeypatch):
        # an acyclic set loses no edge to the conflict pass, so its closure
        # comes from the topological sweep and the greedy pass never runs;
        # output and searches are the reference's all the same
        def greedy(order, size):
            raise AssertionError("greedy conflict pass on an acyclic set")

        monkeypatch.setattr(sada.framework, "_greedy_acyclic", greedy)
        rng = np.random.default_rng([20261020, ACYCLIC_ORACLES.index(kind), max_cond or 0])
        removed = 0
        for case in range(25):
            edges, oracle = random_acyclic_case(rng, kind)
            want_log, got_log = RecordingOracle(oracle), RecordingOracle(oracle)
            want = remove_conflicts_and_redundancy_reference(edges, want_log, max_cond)
            got = remove_conflicts_and_redundancy(edges, got_log, max_cond)
            assert got == want, f"case {case}"
            assert got_log.calls == want_log.calls, f"case {case}"
            removed += len(edges) - len(got)
        assert removed > 0

    def test_cyclic_sets_take_the_greedy_pass(self, monkeypatch):
        passes = []
        greedy = sada.framework._greedy_acyclic

        def counted(order, size):
            passes.append(len(order))
            return greedy(order, size)

        monkeypatch.setattr(sada.framework, "_greedy_acyclic", counted)
        rng = np.random.default_rng(20261021)
        cyclic = 0
        for case in range(25):
            edges, oracle = random_cleanup_case(rng, "exact")
            try:
                Dag(oracle.graph.n, edges.pairs())
                has_cycle = False
            except CycleError:
                has_cycle = True
            cyclic += has_cycle
            del passes[:]
            want_log, got_log = RecordingOracle(oracle), RecordingOracle(oracle)
            want = remove_conflicts_and_redundancy_reference(edges, want_log, 3)
            assert remove_conflicts_and_redundancy(edges, got_log, 3) == want, f"case {case}"
            assert got_log.calls == want_log.calls, f"case {case}"
            assert passes == ([len(edges)] if has_cycle else []), f"case {case}"
        assert cyclic > 0

    @pytest.mark.parametrize("kind", CLEANUP_ORACLES)
    def test_sweep_matches_the_closure_reference(self, kind):
        # over the cleanup's adjacency, kahn_sweep's closure is the plain
        # Kahn closure's back, and it refuses exactly the sets that closure
        # refuses; its order is a topological order of the edge set
        rng = np.random.default_rng([20261022, CLEANUP_ORACLES.index(kind)])
        outcomes = set()
        for case in range(40):
            make = random_acyclic_case if case % 2 and kind != "dependent" else random_cleanup_case
            edges, _ = make(rng, kind)
            order = sorted(edges._items(), key=lambda item: (-item[1], item[0]))
            size = 1 + max(max(pair) for pair, _ in order)
            children, parents = sada.framework._adjacency(order, size)
            want = acyclic_closure_reference(children, parents, size)
            got = kahn_sweep(children, size, children)
            outcomes.add(want is None)
            if want is None:
                assert got is None, f"case {case}"
                continue
            placed, anc = got
            assert anc == want, f"case {case}"
            pos = {x: i for i, x in enumerate(placed)}
            assert len(pos) == len(placed) and set(pos) >= set(children), f"case {case}"
            assert all(pos[p] < pos[c] for p, c in edges.pairs()), f"case {case}"
        assert outcomes == {True, False}

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

    @pytest.mark.parametrize("cap", [1, 3])
    def test_capped_exact_oracle_recovery_relabelled_n300(self, cap):
        # under a cap a side test runs the subset scans of members whose
        # ancestor pool exceeds it; the run still cuts and recovers the truth
        g = relabelled(generate_random_dag(300, 1.25, seed=300), np.random.default_rng(301))
        cuts = []
        out = run_sada(None, range(300), SadaConfig(theta=10, max_cond=cap),
                       make_oracle_solver(g), ExactCiOracle(g),
                       rng=np.random.default_rng(302), trace=cuts)
        assert out.pairs() == frozenset(g.edges)
        assert cuts

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

    def test_duplicate_variables_rejected(self, nine_node):
        with pytest.raises(FrameworkError, match="duplicate variable ids"):
            run_sada(None, [1, 1, 2], SadaConfig(), make_oracle_solver(nine_node),
                     ExactCiOracle(nine_node), rng=np.random.default_rng(0))

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
            with pytest.raises(FrameworkError, match="variable id must be an integer >= 0"):
                run_sada(data, vs, SadaConfig(), solve_lingam, PartialCorrelationOracle(data),
                         rng=np.random.default_rng(0))
            with pytest.raises(FrameworkError, match="variable id must be an integer >= 0"):
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


class TestChildStreams:
    """Below the first split, a side builds the stream `spawn(2)` would give
    it, and only when it searches for a cut."""

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.Philox])
    def test_child_stream_is_the_spawned_one(self, bit_generator):
        for depth in (0, 50):
            rng = np.random.Generator(bit_generator(np.random.SeedSequence(2026)))
            for _ in range(depth):
                rng = rng.spawn(2)[1]
            built = [_child_stream(rng, i) for i in range(2)]
            # Philox's state holds arrays, so it is compared as text
            assert [repr(g.bit_generator.state) for g in built] == \
                [repr(g.bit_generator.state) for g in rng.spawn(2)]
            assert type(built[0].bit_generator) is bit_generator

    def test_searching_sides_draw_their_spawned_streams(self, monkeypatch):
        # every cut search below the root gets the stream of its path of
        # spawn(2) children, and the caller's Generator has spawned two
        searches, search = [], sada.framework.find_causal_cut

        def recorded(oracle, variables, cfg, rng):
            ss = rng.bit_generator.seed_seq
            searches.append((ss.spawn_key, rng.bit_generator.state))
            return search(oracle, variables, cfg, rng)

        monkeypatch.setattr(sada.framework, "find_causal_cut", recorded)
        g = generate_random_dag(60, 1.25, seed=4)
        rng = np.random.default_rng(np.random.SeedSequence(7).spawn(1)[0])
        out = run_sada(None, range(60), SadaConfig(theta=10, max_cond=None),
                       make_oracle_solver(g), ExactCiOracle(g), rng)
        assert out.pairs() == frozenset(g.edges)
        assert rng.bit_generator.seed_seq.n_children_spawned == 2
        keys = [key for key, _ in searches]
        assert keys[0] == (0,) and max(map(len, keys)) >= 4
        for key, state in searches[1:]:
            assert key[:-1] in keys and key[-1] in (0, 1)
            ss = np.random.SeedSequence(7).spawn(1)[0]
            for i in key[1:]:
                ss = ss.spawn(2)[i]
            assert state == np.random.PCG64(ss).state
