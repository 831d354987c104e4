"""Randomized invariant suites shared by the module tests and the
acceptance run. Each checker raises AssertionError on the first violation
and returns the number of cases it exercised."""

import itertools

import numpy as np

from sada.citest import CiOracle, ExactCiOracle, PartialCorrelationOracle
from sada.framework import remove_conflicts_and_redundancy
from sada.graph import Dag
from sada.solvers import EdgeSet
from sada.synth import generate_linear_nongaussian

from oracles import brute_force_d_separated


class _AlwaysDependent(CiOracle):
    def __init__(self, n=64):
        super().__init__(n)

    def _p_value(self, u, v, zt):
        return 0.0


def _random_dag(rng, n, p):
    edges = [(u, v) for v in range(1, n) for u in range(v) if rng.random() < p]
    return Dag(n, edges)


def check_dsep_exhaustive(num_graphs=24, max_n=7, seed=20240817):
    """Bitset d-separation equals path enumeration on every pair and every
    conditioning set of random graphs up to max_n nodes."""
    rng = np.random.default_rng(seed)
    cases = 0
    for _ in range(num_graphs):
        n = int(rng.integers(3, max_n + 1))
        g = _random_dag(rng, n, 0.4)
        for u, v in itertools.combinations(range(n), 2):
            rest = [w for w in range(n) if w not in (u, v)]
            for size in range(len(rest) + 1):
                for z in itertools.combinations(rest, size):
                    got = g.d_separated(u, v, z)
                    want = brute_force_d_separated(g, u, v, z)
                    assert got == want, f"d_sep({u},{v}|{z}) on {sorted(g.edges)}: {got} vs {want}"
                    cases += 1
    return cases


def check_ci_size(num_queries=1000, m=400, alpha=0.05, slack=0.03, seed=414243):
    """Fisher-z false-rejection rate on truly independent pairs stays within
    alpha + slack. Mixes marginal and one-variable conditioning queries."""
    rng = np.random.default_rng(seed)
    rejected = 0
    for i in range(num_queries):
        g = Dag(3, [(2, 0), (2, 1)]) if i % 2 else Dag(3, [])
        data = generate_linear_nongaussian(g, m, seed=rng.integers(2**32))
        oracle = PartialCorrelationOracle(data, alpha_level=alpha)
        z = (2,) if i % 2 else ()
        if not oracle.query(0, 1, z).independent:
            rejected += 1
    rate = rejected / num_queries
    assert rate <= alpha + slack, f"size {rate:.4f} exceeds {alpha} + {slack}"
    return num_queries


def check_merge_invariants(num_cases=10000, seed=987123):
    """Conflict/redundancy cleanup on randomized edge sets: output is always
    acyclic and a subset of the input, a second cleanup leaves it unchanged;
    with an always-dependent oracle an acyclic input passes through untouched,
    and significances are preserved."""
    rng = np.random.default_rng(seed)
    dependent = _AlwaysDependent()
    cases = 0
    for case in range(num_cases):
        n = int(rng.integers(2, 9))
        density = rng.uniform(0.1, 0.7)
        edges = EdgeSet()
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < density:
                    edges.add(u, v, float(rng.random()))
        if case % 2:
            oracle = dependent
        else:
            oracle = ExactCiOracle(_random_dag(rng, n, 0.4))
        out = remove_conflicts_and_redundancy(edges, oracle, max_cond=3)
        Dag(n, out.pairs())  # raises CycleError on any cycle
        assert out.pairs() <= edges.pairs()
        assert remove_conflicts_and_redundancy(out, oracle, max_cond=3) == out, \
            "a second cleanup changed the output"
        for e in out:
            assert e.significance == edges.significance(e.parent, e.child)
        if oracle is dependent:
            try:
                Dag(n, edges.pairs())
                acyclic_input = True
            except Exception:
                acyclic_input = False
            if acyclic_input:
                assert out == edges, "acyclic input was modified"
        cases += 1
    return cases


def check_normalization(num_graphs=20, m=200, tol=1e-9, seed=7321):
    """Every generated continuous column is standardized to mean 0, sd 1."""
    rng = np.random.default_rng(seed)
    cases = 0
    for _ in range(num_graphs):
        n = int(rng.integers(2, 12))
        g = _random_dag(rng, n, 0.35)
        data = generate_linear_nongaussian(g, m, seed=rng.integers(2**32))
        mu = data.values.mean(axis=0)
        sd = data.values.std(axis=0)
        assert np.max(np.abs(mu)) < tol, f"column mean off by {np.max(np.abs(mu))}"
        assert np.max(np.abs(sd - 1.0)) < tol, f"column sd off by {np.max(np.abs(sd - 1.0))}"
        cases += n
    return cases
