"""Recursive split-and-merge causal discovery.

The driver partitions a variable set with causal cuts found through
conditional-independence queries, solves small subproblems with a pluggable
solver, and merges partial edge sets while removing conflicts and
redundant direct edges.
"""

from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .citest import is_alpha_level
from .graph import CausalCut, bit_ids, is_count
from .solvers import EdgeSet


class FrameworkError(ValueError):
    pass


@dataclass(frozen=True)
class SadaConfig:
    """Knobs for the recursive driver.

    theta: stop partitioning once a subproblem has at most this many
    variables.  k: independent restarts of the cut search per node.
    max_cond: conditioning-set cap for every CI query (None lifts it).
    alpha_level: significance level of the CI tests.  A run's randomness
    comes only from the Generator passed to run_sada.
    """

    theta: int = 10
    k: int = 1
    max_cond: Optional[int] = 3
    alpha_level: float = 0.05

    def __post_init__(self):
        if not is_count(self.theta, 2):
            raise FrameworkError(f"theta must be an integer >= 2, got {self.theta!r}")
        if not is_count(self.k, 1):
            raise FrameworkError(f"k must be an integer >= 1, got {self.k!r}")
        if self.max_cond is not None and not is_count(self.max_cond, 0):
            raise FrameworkError(f"max_cond must be None or an integer >= 0, got {self.max_cond!r}")
        if not is_alpha_level(self.alpha_level):
            raise FrameworkError(
                f"alpha_level must be a real number in (0, 1), got {self.alpha_level!r}")


def _sorted_ids(variables) -> list:
    """The variable ids as ints in ascending order, once each is a
    nonnegative integer and none repeats."""
    vs = list(variables)
    for w in vs:
        if not is_count(w, 0):
            raise FrameworkError(f"variable ids must be nonnegative integers, got {w!r}")
    vs = sorted(int(w) for w in vs)
    if len(set(vs)) != len(vs):
        raise FrameworkError("duplicate variable ids")
    return vs


def _grow_from_seed(oracle, ordered_vars, u, v, seed_separator, max_cond):
    """Assign every remaining variable to one side of the seed pair or to the
    cut set, then try to move cut members outward.  Returns (v1, c, v2)
    frozensets; in between, all three are bitsets, as the oracle takes them.

    A variable joins V2 when some subset of the current cut set separates it
    from every member of V1; the V1 test runs first, so a variable separable
    from both sides lands in V2.  The refinement pass re-tests each original
    cut member s against the current sides using the current cut set minus s.
    """
    v1, v2 = 1 << u, 1 << v
    cut = sum(1 << w for w in seed_separator)
    for w in ordered_vars:
        bit = 1 << w
        if w == u or w == v or cut & bit:
            continue
        if oracle.separable(w, v1, cut, max_cond):
            v2 |= bit
        elif oracle.separable(w, v2, cut, max_cond):
            v1 |= bit
        else:
            cut |= bit
    for s in bit_ids(cut):
        rest = cut & ~(1 << s)
        if oracle.separable(s, v1, rest, max_cond):
            cut = rest
            v2 |= 1 << s
        elif oracle.separable(s, v2, rest, max_cond):
            cut = rest
            v1 |= 1 << s
    return frozenset(bit_ids(v1)), frozenset(bit_ids(cut)), frozenset(bit_ids(v2))


def _pair_row_starts(n):
    """Index of the first pair (i, i+1) of each row i in the row-major order
    of the unordered pairs i < j of n items."""
    return [i * n - i * (i + 1) // 2 for i in range(n - 1)]


def _decode_pair(k, starts):
    """Pair (i, j) at index k of that row-major order, in exact integers."""
    i = bisect_right(starts, k) - 1
    return i, i + 1 + k - starts[i]


def _sample_seed_pair(oracle, ordered_vars, max_cond, rng):
    """Shuffle all unordered pairs, probe the first 5n of them, and return
    (u, v, smallest separator) for the first separable pair, else None.
    Only the probed indices are decoded into pairs."""
    n = len(ordered_vars)
    order = rng.permutation(n * (n - 1) // 2)
    starts = _pair_row_starts(n)
    budget = 5 * n
    everyone = sum(1 << w for w in ordered_vars)
    for idx in order[:budget]:
        i, j = _decode_pair(int(idx), starts)
        u, v = ordered_vars[i], ordered_vars[j]
        sep = oracle.find_separator(u, v, everyone & ~((1 << u) | (1 << v)), max_cond)
        if sep is not None:
            return u, v, sep
    return None


def _check_rng(rng):
    if not isinstance(rng, np.random.Generator):
        raise FrameworkError(f"rng must be a numpy Generator, got {type(rng).__name__}")


def find_causal_cut(oracle, variables, cfg: SadaConfig, rng):
    """Search for a causal cut of `variables`, best of cfg.k restarts.

    Each restart seeds two separable variables, grows both sides greedily in
    ascending id order, and refines the cut set.  The winner maximizes the
    smaller side size; ties go to the smaller cut set.  Returns None when no
    restart produces a separable seed pair.
    `rng` (a numpy Generator) shuffles the seed pairs.
    """
    ordered = _sorted_ids(variables)
    if len(ordered) < 3:
        raise FrameworkError(f"cut search needs at least 3 variables, got {len(ordered)}")
    _check_rng(rng)
    best = None
    best_key = None
    for _ in range(cfg.k):
        seed = _sample_seed_pair(oracle, ordered, cfg.max_cond, rng)
        if seed is None:
            continue
        u, v, sep = seed
        candidate = CausalCut(*_grow_from_seed(oracle, ordered, u, v, sep, cfg.max_cond))
        key = (candidate.min_side, -len(candidate.cut_set))
        if best_key is None or key > best_key:
            best, best_key = candidate, key
    return best


# longest detour p -> ... -> c, in edges, that can make a direct edge p -> c
# redundant
MAX_PATH_EDGES = 6


def _simple_path_interiors(children, reaches, source, target, max_edges):
    """Yield the interior variable sets, as bitsets, of simple directed paths
    source -> target with at least 2 and at most max_edges edges,
    deduplicated, in depth-first order.

    reaches holds, as a bitset, every node that may still reach target. A
    node is pushed only while the path has fewer than max_edges edges and
    the node is in reaches, so every branch that is cut could never reach
    the target in time, and the yield order is that of the unpruned search."""
    seen = set()
    start = 1 << source
    # (node, bitset of the path's nodes, edges once it takes one more step)
    stack = [(source, start, 1)]
    while stack:
        node, path, edges = stack.pop()
        for nxt in children.get(node, ()):
            if nxt == target:
                if edges >= 2:
                    inner = path ^ start
                    if inner not in seen:
                        seen.add(inner)
                        yield inner
            elif edges < max_edges and (reaches >> nxt) & 1 and not (path >> nxt) & 1:
                stack.append((nxt, path | (1 << nxt), edges + 1))


def remove_conflicts_and_redundancy(edges: EdgeSet, oracle, max_cond) -> EdgeSet:
    """Two cleanup passes over an edge set, in descending significance.

    Conflict pass: accept edges one by one, dropping any edge whose child
    already reaches its parent through accepted edges (would close a cycle).
    Reachability is kept as a two-way transitive closure, reach[x] (what x
    reaches) and back[x] (what reaches x), bitsets with bit w for variable
    w, so accepting p -> c touches only the rows of the nodes that reach p
    and of the nodes c reaches.

    Redundancy pass: for each surviving edge p -> c with a surviving longer
    directed path p -> ... -> c of at most MAX_PATH_EDGES edges, drop the
    edge if the oracle finds a separator among some path's interior
    variables. The interiors come lazily from a depth-first search confined
    to back[c], and the search stops at the first separating interior. The
    pass only removes edges, so back[c] still holds every node that reaches c.
    """
    order = sorted(edges, key=lambda e: (-e.significance, e.parent, e.child))
    size = 1 + max((max(e.parent, e.child) for e in order), default=-1)
    # over the accepted edges, each excluding the node itself
    reach = [0] * size
    back = [0] * size
    kept = []
    for e in order:
        p, c = e.parent, e.child
        if (reach[c] >> p) & 1:
            continue
        kept.append(e)
        sources = (1 << p) | back[p]
        sinks = (1 << c) | reach[c]
        rest = sources
        while rest:
            low = rest & -rest
            rest ^= low
            reach[low.bit_length() - 1] |= sinks
        rest = sinks
        while rest:
            low = rest & -rest
            rest ^= low
            back[low.bit_length() - 1] |= sources

    children, parents = {}, {}
    for e in kept:
        children.setdefault(e.parent, set()).add(e.child)
        parents.setdefault(e.child, set()).add(e.parent)
    out = EdgeSet()
    for e in kept:
        p, c = e.parent, e.child
        children[p].discard(c)
        parents[c].discard(p)
        # a detour needs another edge out of p and another into c
        if children[p] and parents[c]:
            interiors = _simple_path_interiors(children, back[c], p, c, MAX_PATH_EDGES)
            if any(oracle.find_separator(p, c, inner, max_cond) is not None
                   for inner in interiors):
                continue
        children[p].add(c)
        parents[c].add(p)
        out.add(p, c, e.significance)
    return out


def clean_unmerged(edges: EdgeSet, cuts, oracle, max_cond) -> EdgeSet:
    """The final result of a run whose leaf solver may return cycles (the
    discrete ANM solver). A run that accepted no cut returns its one leaf's
    raw output, which no merge has cleaned, so it gets the conflict and
    redundancy cleanup here; a merged root is clean already and is returned
    as it is. `cuts` is the run's trace list of accepted cuts."""
    if cuts:
        return edges
    return remove_conflicts_and_redundancy(edges, oracle, max_cond)


def merge_results(g1: EdgeSet, g2: EdgeSet, oracle, max_cond) -> EdgeSet:
    """Union two partial results (duplicate pairs keep the larger
    significance), then remove conflicts and redundant direct edges."""
    merged = EdgeSet([*g1, *g2])
    return remove_conflicts_and_redundancy(merged, oracle, max_cond)


def run_sada(data, variables, cfg: SadaConfig, solver, oracle, rng,
             trace=None) -> EdgeSet:
    """Recursive split-and-merge driver.

    Solves `variables` directly once it is no bigger than cfg.theta or no cut
    can be found; otherwise recurses on both sides of the cut (each side plus
    the cut set) and merges the partial results.  `solver` is called as
    solver(data, variable_set) and must return an EdgeSet.

    `rng` (a numpy Generator) is the run's only source of randomness; each
    split spawns one child stream per side, so a run replays from its seed.
    `trace` (a list), when given, receives every accepted CausalCut; the
    variables a cut partitioned are left | cut_set | right.
    """
    vs = _sorted_ids(variables)
    if not vs:
        raise FrameworkError("variables must be nonempty")
    if data is not None and vs[-1] >= data.n:
        raise FrameworkError(f"variable id {vs[-1]} out of range for {data.n} columns")
    _check_rng(rng)
    return _run(data, vs, cfg, solver, oracle, rng, trace)


def _run(data, vs, cfg, solver, oracle, rng, trace):
    cut = None if len(vs) <= cfg.theta else find_causal_cut(oracle, vs, cfg, rng=rng)
    if cut is None:
        return solver(data, set(vs))
    if trace is not None:
        trace.append(cut)
    rng1, rng2 = rng.spawn(2)
    g1 = _run(data, sorted(cut.left | cut.cut_set), cfg, solver, oracle, rng1, trace)
    g2 = _run(data, sorted(cut.right | cut.cut_set), cfg, solver, oracle, rng2, trace)
    return merge_results(g1, g2, oracle, max_cond=cfg.max_cond)
