"""Recursive split-and-merge causal discovery.

The driver partitions a variable set with causal cuts found through
conditional-independence queries, solves small subproblems with a pluggable
solver, and merges partial edge sets while removing conflicts and
redundant direct edges.
"""

import numbers
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .citest import is_alpha_level
from .graph import CausalCut
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
        if not _is_count(self.theta, 2):
            raise FrameworkError(f"theta must be an integer >= 2, got {self.theta!r}")
        if not _is_count(self.k, 1):
            raise FrameworkError(f"k must be an integer >= 1, got {self.k!r}")
        if self.max_cond is not None and not _is_count(self.max_cond, 0):
            raise FrameworkError(f"max_cond must be None or an integer >= 0, got {self.max_cond!r}")
        if not is_alpha_level(self.alpha_level):
            raise FrameworkError(
                f"alpha_level must be a real number in (0, 1), got {self.alpha_level!r}")


def _is_count(x, floor) -> bool:
    """True for an integral number (numpy integers included) of at least
    floor; a float is refused even when whole, and a bool is no count."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool) and x >= floor


def _grow_from_seed(oracle, ordered_vars, u, v, seed_separator, max_cond):
    """Assign every remaining variable to one side of the seed pair or to the
    cut set, then try to move cut members outward.  Returns (v1, c, v2) sets.

    A variable joins V2 when some subset of the current cut set separates it
    from every member of V1; the V1 test runs first, so a variable separable
    from both sides lands in V2.  The refinement pass re-tests each original
    cut member s against the current sides using the current cut set minus s.
    The cut set is a frozenset rebuilt only when it changes, so every query
    against one cut state receives the same pool object.
    """
    v1 = {u}
    v2 = {v}
    cut = frozenset(seed_separator)
    for w in ordered_vars:
        if w == u or w == v or w in cut:
            continue
        if oracle.separable(w, v1, cut, max_cond):
            v2.add(w)
        elif oracle.separable(w, v2, cut, max_cond):
            v1.add(w)
        else:
            cut = cut | {w}
    for s in sorted(cut):
        rest = cut - {s}
        if oracle.separable(s, v1, rest, max_cond):
            cut = rest
            v2.add(s)
        elif oracle.separable(s, v2, rest, max_cond):
            cut = rest
            v1.add(s)
    return v1, cut, v2


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
    everyone = set(ordered_vars)
    for idx in order[:budget]:
        i, j = _decode_pair(int(idx), starts)
        u, v = ordered_vars[i], ordered_vars[j]
        sep = oracle.find_separator(u, v, everyone - {u, v}, max_cond)
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
    ordered = sorted(int(w) for w in variables)
    if len(ordered) < 3:
        raise FrameworkError(f"cut search needs at least 3 variables, got {len(ordered)}")
    if len(set(ordered)) != len(ordered):
        raise FrameworkError("duplicate variable ids")
    _check_rng(rng)
    best = None
    best_key = None
    for _ in range(cfg.k):
        seed = _sample_seed_pair(oracle, ordered, cfg.max_cond, rng)
        if seed is None:
            continue
        u, v, sep = seed
        v1, cut, v2 = _grow_from_seed(oracle, ordered, u, v, sep, cfg.max_cond)
        candidate = CausalCut(frozenset(v1), frozenset(cut), frozenset(v2))
        key = (candidate.min_side, -len(candidate.cut_set))
        if best_key is None or key > best_key:
            best, best_key = candidate, key
    return best


# longest detour p -> ... -> c, in edges, that can make a direct edge p -> c
# redundant
MAX_PATH_EDGES = 6


def _distances_to(parents, target, limit):
    """Fewest edges from each node to target over the current edges, by a
    reverse breadth-first search; only nodes within `limit` edges appear."""
    dist = {target: 0}
    frontier = [target]
    for d in range(1, limit + 1):
        reached = []
        for x in frontier:
            for p in parents.get(x, ()):
                if p not in dist:
                    dist[p] = d
                    reached.append(p)
        if not reached:
            break
        frontier = reached
    return dist


def _simple_path_interiors(children, dist, source, target, max_edges):
    """Yield the interior variable sets of simple directed paths
    source -> target with at least 2 and at most max_edges edges,
    deduplicated, in depth-first order.

    dist[x] bounds the edges from x to target from below (it ignores the
    simple-path rule); a node missing from dist is farther away than any
    path may run.  A node is pushed only when the path so far, the step to
    it and dist[it] fit in max_edges, so every branch that is cut could
    never reach the target in time, and the yield order is that of the
    unpruned search."""
    seen = set()
    stack = [(source, (source,))]
    while stack:
        node, path = stack.pop()
        edges = len(path)  # edges of the path once it takes one more step
        for nxt in children.get(node, ()):
            if nxt == target:
                if edges >= 2:
                    inner = frozenset(path[1:])
                    if inner not in seen:
                        seen.add(inner)
                        yield inner
            elif nxt not in path:
                d = dist.get(nxt)
                if d is not None and edges + d <= max_edges:
                    stack.append((nxt, path + (nxt,)))


def remove_conflicts_and_redundancy(edges: EdgeSet, oracle, max_cond) -> EdgeSet:
    """Two cleanup passes over an edge set, in descending significance.

    Conflict pass: accept edges one by one, dropping any edge whose child
    already reaches its parent through accepted edges (would close a cycle).
    Reachability is kept as a two-way transitive closure, reach[x] (what x
    reaches) and back[x] (what reaches x), so accepting p -> c touches only
    the rows of the nodes that reach p and of the nodes c reaches.

    Redundancy pass: for each surviving edge p -> c with a surviving longer
    directed path p -> ... -> c of at most MAX_PATH_EDGES edges, drop the
    edge if the oracle finds a separator among some path's interior
    variables.  The interiors come lazily from a depth-first search that a
    reverse breadth-first search from c prunes to the branches that can
    still reach c, and the search stops at the first separating interior.
    """
    order = sorted(edges, key=lambda e: (-e.significance, e.parent, e.child))
    index = {w: i for i, w in enumerate(sorted({x for e in order for x in (e.parent, e.child)}))}
    # bitsets over the accepted edges, each excluding the node itself:
    # reach[i] = nodes reachable from i, back[i] = nodes that reach i
    reach = [0] * len(index)
    back = [0] * len(index)
    kept = []
    for e in order:
        p, c = index[e.parent], index[e.child]
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
            dist = _distances_to(parents, c, MAX_PATH_EDGES - 1)
            interiors = _simple_path_interiors(children, dist, p, c, MAX_PATH_EDGES)
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
    merged = EdgeSet.union_max(g1, g2)
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
    vs = sorted(int(w) for w in variables)
    if not vs:
        raise FrameworkError("variables must be nonempty")
    if len(set(vs)) != len(vs):
        raise FrameworkError("duplicate variable ids")
    if vs[0] < 0:
        raise FrameworkError(f"negative variable id {vs[0]}")
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
