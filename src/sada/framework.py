"""Recursive split-and-merge causal discovery.

The driver partitions a variable set with causal cuts found through
conditional-independence queries, solves small subproblems with a pluggable
solver, and merges partial edge sets while removing conflicts and
redundant direct edges.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graph import CausalCut, bit_ids, check_alpha_level, check_cap, check_count, kahn_sweep, \
    pair_ids
from .solvers import EdgeSet


class FrameworkError(ValueError):
    pass


@dataclass(frozen=True)
class SadaConfig:
    """Knobs for the recursive driver.

    theta: stop partitioning once a subproblem has at most this many
    variables.  k: independent restarts of the cut search per node.
    max_cond: conditioning-set cap for every CI query (None lifts it).
    alpha_level: the level the front ends (`sada discover`, `sada bench`)
    build their oracle at; nothing under run_sada reads it, as each oracle
    tests at its own alpha_level.  A run's randomness comes only from the
    Generator passed to run_sada.
    """

    theta: int = 10
    k: int = 1
    max_cond: Optional[int] = 3
    alpha_level: float = 0.05

    def __post_init__(self):
        set_ = object.__setattr__
        set_(self, "theta", check_count(self.theta, 2, "theta", FrameworkError))
        set_(self, "k", check_count(self.k, 1, "k", FrameworkError))
        set_(self, "max_cond", check_cap(self.max_cond, FrameworkError))
        check_alpha_level(self.alpha_level, FrameworkError)


def _sorted_ids(variables) -> list:
    """The variable ids as ints in ascending order, once each is a count of
    at least 0 and none repeats."""
    vs = sorted(check_count(w, 0, "variable id", FrameworkError) for w in variables)
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


def _sample_seed_pair(oracle, ordered_vars, max_cond, rng):
    """Shuffle all unordered pairs, probe the first 5n of them, and return
    (u, v, smallest separator) for the first separable pair, else None.
    Only the probed indices are decoded into pairs."""
    n = len(ordered_vars)
    order = rng.permutation(n * (n - 1) // 2)
    everyone = sum(1 << w for w in ordered_vars)
    rows, cols = pair_ids(order[:5 * n], n)
    for i, j in zip(rows.tolist(), cols.tolist()):
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


def _adjacency(items, size) -> tuple:
    """The children of each parent, as sets filled in the order of `items`,
    ((parent, child), significance) pairs, and each node's parents as a
    bitset over 0..size-1. The detour search walks the sets in their
    iteration order, so the filling order fixes the order of its searches."""
    children, parents = {}, [0] * size
    for (p, c), _ in items:
        children.setdefault(p, set()).add(c)
        parents[c] |= 1 << p
    return children, parents


def _greedy_acyclic(order, size) -> tuple:
    """The edges of `order` accepted one by one, dropping any edge whose
    child already reaches its parent through accepted edges (it would close
    a cycle), and back over the accepted edges. Reachability is kept as a
    two-way transitive closure, reach[x] (what x reaches) and back[x] (what
    reaches x), so accepting p -> c touches only the rows of the nodes that
    reach p and of the nodes c reaches."""
    # over the accepted edges, each excluding the node itself
    reach = [0] * size
    back = [0] * size
    kept = []
    for item in order:
        p, c = item[0]
        if (reach[c] >> p) & 1:
            continue
        kept.append(item)
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
    return kept, back


def remove_conflicts_and_redundancy(edges: EdgeSet, oracle, max_cond) -> EdgeSet:
    """Two cleanup passes over an edge set, in descending significance.

    Conflict pass: accept edges one by one, dropping any edge whose child
    already reaches its parent through accepted edges (would close a cycle).
    An acyclic set loses no edge, so when `kahn_sweep`, the topological sweep
    that orders every Dag, places every node, the pass is skipped and the
    sweep's closure is back[x], the bitset of the nodes that reach x;
    otherwise the greedy pass keeps back as it goes.

    Redundancy pass: for each surviving edge p -> c with a surviving longer
    directed path p -> ... -> c of at most MAX_PATH_EDGES edges, drop the
    edge if the oracle finds a separator among some path's interior
    variables. The interiors come lazily from a depth-first search confined
    to back[c], and the search stops at the first separating interior. The
    pass only removes edges, so back[c] still holds every node that reaches
    c. No search runs while p has no other child or c no other parent left,
    since no detour can exist then.
    """
    max_cond = check_cap(max_cond, FrameworkError)
    order = sorted(edges._items(), key=lambda item: (-item[1], item[0]))
    size = 1 + max((max(pair) for pair, _ in order), default=-1)
    children, parents = _adjacency(order, size)
    swept = kahn_sweep(children, size, children)
    if swept is None:
        kept, back = _greedy_acyclic(order, size)
        children, parents = _adjacency(kept, size)
    else:
        kept, back = order, swept[1]

    out = {}
    for (p, c), sig in kept:
        others = children[p]
        others.discard(c)
        if others and parents[c] != 1 << p:
            interiors = _simple_path_interiors(children, back[c], p, c, MAX_PATH_EDGES)
            if any(oracle.find_separator(p, c, inner, max_cond) is not None
                   for inner in interiors):
                parents[c] ^= 1 << p
                continue
        others.add(c)
        out[p, c] = sig
    return EdgeSet._trusted(out)


def merge_results(g1: EdgeSet, g2: EdgeSet, oracle, max_cond) -> EdgeSet:
    """Union two partial results (duplicate pairs keep the larger
    significance), then remove conflicts and redundant direct edges. Both
    sets' edges passed EdgeSet's checks already, so they are not checked
    again."""
    return remove_conflicts_and_redundancy(EdgeSet._union(g1, g2), oracle, max_cond)


def run_sada(data, variables, cfg: SadaConfig, solver, oracle, rng,
             trace=None) -> EdgeSet:
    """Recursive split-and-merge driver.

    Solves `variables` directly once it is no bigger than cfg.theta or no cut
    can be found; otherwise recurses on both sides of the cut (each side plus
    the cut set) and merges the partial results.  `solver` is called as
    solver(data, variable_set) and must return an EdgeSet.  A run that
    accepts no cut returns that raw output; library callers want `discover`.

    `rng` (a numpy Generator) is the run's only source of randomness, so a
    run replays from its seed. The first split spawns one child stream per
    side from it, by `rng.spawn(2)`; below that, a side builds the child
    stream `spawn(2)` would give it only when it searches for a cut, since
    a leaf draws nothing.
    `trace` (a list), when given, receives every accepted CausalCut; the
    variables a cut partitioned are left | cut_set | right.
    """
    vs = _sorted_ids(variables)
    if not vs:
        raise FrameworkError("variables must be nonempty")
    if data is not None and vs[-1] >= data.n:
        raise FrameworkError(f"variable id {vs[-1]} out of range for {data.n} columns")
    _check_rng(rng)
    return _run(data, vs, cfg, solver, oracle, rng, trace, root=True)


def _child_stream(rng, i):
    """The Generator of `rng.spawn(2)[i]` for a stream that has spawned
    nothing, built alone: numpy's SeedSequence costs time in the depth of
    its spawn key, and a side that searches for no cut needs no stream."""
    bg = rng.bit_generator
    ss = bg.seed_seq
    return np.random.Generator(type(bg)(np.random.SeedSequence(
        ss.entropy, spawn_key=ss.spawn_key + (i,), pool_size=ss.pool_size)))


def _run(data, vs, cfg, solver, oracle, rng, trace, root=False):
    cut = None if len(vs) <= cfg.theta else find_causal_cut(oracle, vs, cfg, rng=rng)
    if cut is None:
        return solver(data, set(vs))
    if trace is not None:
        trace.append(cut)
    sides = (sorted(cut.left | cut.cut_set), sorted(cut.right | cut.cut_set))
    # the caller's Generator spawns, as it may have before and may again;
    # a stream built here has spawned nothing
    streams = rng.spawn(2) if root else [
        _child_stream(rng, i) if len(side) > cfg.theta else None
        for i, side in enumerate(sides)]
    g1, g2 = (_run(data, side, cfg, solver, oracle, stream, trace)
              for side, stream in zip(sides, streams))
    return merge_results(g1, g2, oracle, max_cond=cfg.max_cond)


def discover(data, variables, cfg: SadaConfig, solver, oracle, rng):
    """A run of run_sada as (edges, cuts), cuts being its accepted CausalCuts
    in order. Every edge set it returns has had the conflict and redundancy
    cleanup, whatever the solver: a merged root comes back as run_sada
    returned it, and a run that accepted no cut is cleaned here."""
    cuts = []
    edges = run_sada(data, variables, cfg, solver, oracle, rng, trace=cuts)
    if not cuts:
        edges = remove_conflicts_and_redundancy(edges, oracle, cfg.max_cond)
    return edges, cuts
