"""Independent reference implementations used only to check the package.

Everything here favours obviousness over speed: path enumeration instead of
reachability passes, exact rational arithmetic instead of log-space floats.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from fractions import Fraction


def skeleton_adjacency(g):
    adj = defaultdict(set)
    for a, b in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def all_undirected_simple_paths(g, u, v):
    adj = skeleton_adjacency(g)
    path = [u]
    on_path = {u}

    def extend():
        x = path[-1]
        if x == v:
            yield list(path)
            return
        for y in sorted(adj[x]):
            if y not in on_path:
                path.append(y)
                on_path.add(y)
                yield from extend()
                path.pop()
                on_path.remove(y)

    yield from extend()


def descendants(g, x):
    """Strict descendants of x, by a depth-first walk over g.edges."""
    children = defaultdict(set)
    for a, b in g.edges:
        children[a].add(b)
    seen = set()
    stack = [x]
    while stack:
        for c in children[stack.pop()]:
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return seen


def path_active(g, path, z):
    """d-connection along one undirected simple path, by the textbook rules."""
    z = set(z)
    for i in range(1, len(path) - 1):
        a, x, b = path[i - 1], path[i], path[i + 1]
        is_collider = (a, x) in g.edges and (b, x) in g.edges
        if is_collider:
            if x not in z and not (descendants(g, x) & z):
                return False
        else:
            if x in z:
                return False
    return True


def brute_force_d_separated(g, u, v, z):
    """Enumerate every undirected simple path and test it for activity."""
    for path in all_undirected_simple_paths(g, u, v):
        if path_active(g, path, z):
            return False
    return True


def moral_reached(g, u, targets, z):
    """The targets u reaches in the moral graph of An({u} | targets | z)
    (Lauritzen et al., Networks 1990): keep only that ancestral set, marry
    every pair of parents sharing a child, drop directions, delete z, and
    search from u."""
    z = set(z)
    parents = defaultdict(set)
    for a, b in g.edges:
        parents[b].add(a)
    keep = {u} | set(targets) | z
    stack = list(keep)
    while stack:
        for p in parents[stack.pop()]:
            if p not in keep:
                keep.add(p)
                stack.append(p)
    adj = defaultdict(set)
    for x in keep:
        # keep is ancestral, so every parent of a kept node is kept
        family = sorted(parents[x])
        for p in family:
            adj[p].add(x)
            adj[x].add(p)
        for a, b in itertools.combinations(family, 2):
            adj[a].add(b)
            adj[b].add(a)
    seen = {u}
    stack = [u]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen and y not in z:
                seen.add(y)
                stack.append(y)
    return seen & set(targets)


def moral_d_separated(g, u, v, z):
    """d-separation by the ancestral moral graph of {u, v} | z: u and v are
    separated exactly when u does not reach v there once z is deleted."""
    return not moral_reached(g, u, {v}, z)


def closure_by_squaring(g):
    """Boolean transitive closure via repeated matrix squaring."""
    import numpy as np

    a = np.zeros((g.n, g.n), dtype=bool)
    for u, v in g.edges:
        a[u, v] = True
    r = a.copy()
    for _ in range(max(1, math.ceil(math.log2(max(g.n, 2))))):
        r = r | (r @ r)
    return r


def expected_edge_count(n, d):
    """Exact mean of the generator's edge count: each child i (0-based) takes
    min(r, i) parents with r two-point on {floor d, ceil d}, mean d."""
    lo, hi = math.floor(d), math.ceil(d)
    p_hi = d - lo
    total = 0.0
    for child in range(1, n):
        total += (1 - p_hi) * min(lo, child) + p_hi * min(hi, child)
    return total


def exists_separator_brute(g, u, v, candidates, max_cond=None):
    """Smallest-first, lexicographic subset scan of the candidate pool using
    exact d-separation; returns the first separating subset or None."""
    cands = sorted(candidates)
    limit = len(cands) if max_cond is None else min(max_cond, len(cands))
    for k in range(limit + 1):
        for sub in itertools.combinations(cands, k):
            if g.d_separated(u, v, sub):
                return set(sub)
    return None


def grow_from_seed_reference(oracle, ordered_vars, u, v, seed_separator, max_cond):
    """Cut growth with one separator search per pair: a variable joins a side
    when `find_separator` finds a separator within the current cut set
    between it and each member of the other side, V1 tested first; then each
    original cut member is re-tested against the current cut set without
    it. Returns (v1, cut, v2)."""
    def separable(w, side, pool):
        return all(oracle.find_separator(w, a, pool, max_cond) is not None for a in side)

    v1, v2 = {u}, {v}
    cut = frozenset(seed_separator)
    for w in ordered_vars:
        if w in (u, v) or w in cut:
            continue
        if separable(w, v1, cut):
            v2.add(w)
        elif separable(w, v2, cut):
            v1.add(w)
        else:
            cut = cut | {w}
    for s in sorted(cut):
        rest = cut - {s}
        if separable(s, v1, rest):
            cut = rest
            v2.add(s)
        elif separable(s, v2, rest):
            cut = rest
            v1.add(s)
    return v1, cut, v2


def cut_posterior_exact(n_pairs, i, e, f, alpha, beta):
    """Posterior over split-edge counts with exact rationals:
    C(N,i) rho^i / sum_j C(N,j) rho^j, rho = e*beta / (f*(1-alpha))."""
    rho = Fraction(e) * Fraction(beta) / (Fraction(f) * (1 - Fraction(alpha)))
    denom = sum(math.comb(n_pairs, j) * rho**j for j in range(n_pairs + 1))
    return math.comb(n_pairs, i) * rho**i / denom


def cut_expectation_exact(n_pairs, e, f, alpha, beta):
    return sum(i * cut_posterior_exact(n_pairs, i, e, f, alpha, beta) for i in range(n_pairs + 1))


def mc_cut_error(n_pairs, e, f, alpha, beta, trials, rng, batch=200_000):
    """Simulate the cut-acceptance process by rejection: each crossing pair
    is a true edge with prior e/(e+f); a true-edge pair survives the CI
    screen with probability beta, a non-edge pair with 1-alpha; a trial
    counts only when every pair survives (the cut was accepted). Returns
    (mean severed-edge count, standard error) over `trials` accepted runs."""
    import numpy as np

    edge_prior = e / (e + f)
    counts = []
    got = 0
    while got < trials:
        is_edge = rng.random((batch, n_pairs)) < edge_prior
        survive_p = np.where(is_edge, beta, 1.0 - alpha)
        accepted = (rng.random((batch, n_pairs)) < survive_p).all(axis=1)
        kept = is_edge[accepted].sum(axis=1)
        counts.append(kept)
        got += kept.size
    sample = np.concatenate(counts)[:trials].astype(float)
    return float(sample.mean()), float(sample.std(ddof=1) / math.sqrt(trials))


def mc_merge_counts(e1, e2, ec, f1, f2, fc, R1, R2, r1, r2, trials, rng):
    """Simulate the merge count model with per-edge independent discovery
    flips: side edges are found at their side's rate, shared edges when
    either side finds them. Returns ((mean_e, se_e), (mean_f, se_f))."""
    import numpy as np

    def tally(k1, k2, kc, p1, p2):
        found = rng.random((trials, k1)) < p1
        total = found.sum(axis=1)
        total = total + (rng.random((trials, k2)) < p2).sum(axis=1)
        one = rng.random((trials, kc)) < p1
        two = rng.random((trials, kc)) < p2
        total = total + (one | two).sum(axis=1)
        total = total.astype(float)
        return float(total.mean()), float(total.std(ddof=1) / math.sqrt(trials))

    return tally(e1, e2, ec, R1, R2), tally(f1, f2, fc, r1, r2)


def g2_from_tables_reference(tables):
    """G2 and degrees of freedom over stacked (stratum, k, k) count tables,
    one stratum at a time from expected counts. Empty strata contribute
    nothing; zero row or column marginals shrink the dof; cells with zero
    counts contribute zero to the statistic."""
    import numpy as np

    g2 = 0.0
    dof = 0
    for table in tables:
        total = table.sum()
        if total == 0:
            continue
        rows = table.sum(axis=1)
        cols = table.sum(axis=0)
        dof += max(int((rows > 0).sum()) - 1, 0) * max(int((cols > 0).sum()) - 1, 0)
        expected = np.outer(rows, cols) / total
        mask = table > 0
        g2 += 2.0 * float((table[mask] * np.log(table[mask] / expected[mask])).sum())
    return max(g2, 0.0), dof


def discrete_anm_four_pass(data, variables, alpha=0.05):
    """The additive-noise solver pair by ordered pair: count the (x, y) table,
    take each row's first mode, form the cyclic residual column and test it
    against x with a fresh marginal G2 table."""
    import numpy as np

    from sada.citest import G2Kernel
    from sada.solvers import EdgeSet

    k = int(data.num_states)
    vs = sorted({int(v) for v in variables})
    cols = {v: data.values[:, v] for v in vs}
    usable = [v for v in vs if cols[v].min() != cols[v].max()]
    forward_p = {}
    for x_var in usable:
        for y_var in usable:
            if x_var == y_var:
                continue
            x, y = cols[x_var], cols[y_var]
            mode = np.bincount(y + k * x, minlength=k * k).reshape(k, k).argmax(axis=1)
            table = np.bincount((y - mode[x]) % k + k * x, minlength=k * k)
            forward_p[(x_var, y_var)] = G2Kernel(k, len(x)).p_value(table.reshape(1, k, k))
    result = EdgeSet()
    for (x_var, y_var), p_fwd in forward_p.items():
        if p_fwd > alpha and forward_p[(y_var, x_var)] <= alpha:
            result.add(x_var, y_var, p_fwd)
    return result


def simple_path_interiors_reference(children, source, target, max_edges):
    """Interior variable sets of simple directed paths source -> target with
    at least 2 and at most max_edges edges, deduplicated, from an unpruned
    depth-first search over every simple path out of source."""
    interiors = []
    seen = set()
    stack = [(source, (source,))]
    while stack:
        node, path = stack.pop()
        if len(path) - 1 >= max_edges:
            continue
        for nxt in children.get(node, ()):
            if nxt == target:
                if len(path) >= 2:
                    inner = frozenset(path[1:])
                    if inner not in seen:
                        seen.add(inner)
                        interiors.append(inner)
            elif nxt not in path and nxt != source:
                stack.append((nxt, path + (nxt,)))
    return interiors


def remove_conflicts_and_redundancy_reference(edges, oracle, max_cond):
    """The merge cleanup with a full reachability scan per accepted edge and
    every path interior listed before the first separator search."""
    from sada.solvers import EdgeSet

    order = sorted(edges, key=lambda e: (-e.significance, e.parent, e.child))
    index = {w: i for i, w in enumerate(sorted({x for e in order for x in (e.parent, e.child)}))}
    reach = [0] * len(index)
    kept = []
    for e in order:
        p, c = index[e.parent], index[e.child]
        if (reach[c] >> p) & 1:
            continue
        delta = (1 << c) | reach[c]
        for x in range(len(reach)):
            if x == p or (reach[x] >> p) & 1:
                reach[x] |= delta
        kept.append(e)

    children = {}
    for e in kept:
        children.setdefault(e.parent, set()).add(e.child)
    surviving = []
    for e in kept:
        redundant = False
        children[e.parent].discard(e.child)
        for inner in simple_path_interiors_reference(children, e.parent, e.child, 6):
            if oracle.find_separator(e.parent, e.child, inner, max_cond) is not None:
                redundant = True
                break
        if not redundant:
            children[e.parent].add(e.child)
            surviving.append(e)
    out = EdgeSet()
    for e in surviving:
        out.add(e.parent, e.child, e.significance)
    return out


def corr_against_reference(x, cols):
    """Correlation of one vector with each column; degenerate columns give 0."""
    import numpy as np

    xc = x - x.mean()
    cc = cols - cols.mean(axis=0)
    sx = np.sqrt((xc * xc).mean())
    sc = np.sqrt((cc * cc).mean(axis=0))
    denom = sx * sc
    num = (xc[:, None] * cc).mean(axis=0)
    out = np.zeros(cols.shape[1])
    good = denom > 1e-12
    out[good] = num[good] / denom[good]
    return out


def exogeneity_order_reference(x):
    """The LiNGAM-style causal order one candidate at a time: regress the
    other columns on the candidate, score the tanh dependence between it and
    their residuals, take the first lowest score (strict <), deflate and
    restandardise. Returns the order and, per pick, the matrix the pick was
    scored on and the score of every remaining candidate."""
    import numpy as np

    m, k = x.shape
    work = (x - x.mean(axis=0)) / x.std(axis=0)
    remaining = list(range(k))
    order, picks = [], []
    while len(remaining) > 1:
        best, best_score = None, None
        scores = []
        for pos, _ in enumerate(remaining):
            xi = work[:, pos]
            beta = work.T @ xi / m
            resid = work - np.outer(xi, beta)
            resid[:, pos] = 0.0
            c1 = np.abs(corr_against_reference(xi, np.tanh(resid)))
            c2 = np.abs(corr_against_reference(np.tanh(xi), resid))
            score = float(c1.sum() + c2.sum() - c1[pos] - c2[pos])
            scores.append(score)
            if best_score is None or score < best_score:
                best, best_score = pos, score
        picks.append((work, np.array(scores)))
        order.append(remaining[best])
        xi = work[:, best]
        beta = work.T @ xi / m
        work = work - np.outer(xi, beta)
        work = np.delete(work, best, axis=1)
        sd = work.std(axis=0)
        if np.any(sd <= 1e-12):
            sd = np.where(sd <= 1e-12, 1.0, sd)
        work = (work - work.mean(axis=0)) / sd
        del remaining[best]
    order.extend(remaining)
    return order, picks
