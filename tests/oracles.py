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
        pool = sum(1 << x for x in pool)
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


def discrete_anm_four_pass(data, variables):
    """The additive-noise solver pair by ordered pair: count the (x, y) table,
    take each row's first mode, form the cyclic residual column and test it
    against x with a fresh marginal G2 table at LEAF_ALPHA."""
    import numpy as np

    from sada.citest import G2Kernel
    from sada.solvers import LEAF_ALPHA, EdgeSet

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
        if p_fwd > LEAF_ALPHA and forward_p[(y_var, x_var)] <= LEAF_ALPHA:
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


def acyclic_closure_reference(children, parents, size):
    """back[x], the bitset of the nodes that reach x, from one topological
    (Kahn) sweep, or None when the edges hold a cycle. A node's row is whole
    once its last parent is placed, and it is pushed to its children then."""
    indegree = [bits.bit_count() for bits in parents]
    back = [0] * size
    ready = [x for x in children if not indegree[x]]
    while ready:
        x = ready.pop()
        up = back[x] | (1 << x)
        for y in children.get(x, ()):
            back[y] |= up
            indegree[y] -= 1
            if not indegree[y]:
                ready.append(y)
    return None if any(indegree) else back


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
            inner = sum(1 << x for x in inner)
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


def lingam_regression_reference(x, order, vs):
    """The regression half of `solve_lingam` as it was written before its
    diagonals became views and its Wald statistics a masked divide: each
    variable of `order` regressed on its predecessors in the standardised
    samples x, as (parent, child, 1 - p) triples of the ids vs, for the
    coefficients whose Wald test rejects zero at LEAF_ALPHA."""
    import numpy as np

    from sada.citest import PIVOT_TOL, chi2_sf
    from sada.solvers import LEAF_ALPHA, RankDeficientError

    m = len(x)
    edges = []
    for step in range(1, len(order)):
        child = order[step]
        preds = order[:step]
        design = x[:, preds]
        y = x[:, child]
        gram = design.T @ design
        try:
            gram_inv = np.linalg.inv(gram)
        except np.linalg.LinAlgError:
            raise RankDeficientError("collinear predecessors in regression") from None
        d = np.diag(gram_inv) * np.diag(gram)
        if not (d.min() > 0 and d.max() * PIVOT_TOL < 1):
            raise RankDeficientError("collinear predecessors in regression")
        beta = gram_inv @ design.T @ y
        resid = y - design @ beta
        dof = m - len(preds)
        s2 = float(resid @ resid) / dof
        var = s2 * np.diag(gram_inv)
        with np.errstate(divide="ignore", invalid="ignore"):
            wald = np.where(var > 0, beta * beta / var, np.inf)
        p = chi2_sf(wald, 1)
        for j, pred in enumerate(preds):
            if p[j] < LEAF_ALPHA:
                edges.append((vs[pred], vs[child], 1.0 - float(p[j])))
    return edges


def partial_corr_reference(c, u, v, zt) -> float:
    """Partial correlation of u and v given a nonempty zt, from the nested
    correlation lists c. The conditioning variables are eliminated one at a
    time, in the order zt, each as a Schur complement scaled by its pivot, so
    nothing is divided before the end. Each pair of ids is read from the row
    of the one earlier in the order u, v, zt: np.corrcoef is not symmetric
    to the last bit, and this order fixes every result. Raises
    SingularConditioningError when a pivot, the variance of u given zt or
    that of v given zt and u is not above PIVOT_TOL times its diagonal entry
    (1 in a correlation matrix): the set is collinear, or the pair is given
    it, up to rounding.

    The one-shot elimination that the prefix-reusing Fisher-z of
    sada.citest must match bit for bit."""
    from sada.citest import PIVOT_TOL, SingularConditioningError

    cu, cv = c[u], c[v]
    uu, uv, vv = cu[u], cu[v], cv[v]
    # rows[t] holds zt[t]'s entries with u, with v and with each id of zt, at
    # 0, 1 and 2 + r for zt[r]; only those with zt[t] and later ids are read
    rows = [[cu[w], cv[w], *map(c[w].__getitem__, zt)] for w in zt]
    k = len(zt)
    # the entries are scaled by the product of the pivots so far; so is tol
    tol = PIVOT_TOL
    for t, row in enumerate(rows):
        piv = row[2 + t]
        if not piv > tol:
            raise SingularConditioningError("conditioning covariance is singular")
        # each step also scales by a power of two, which is exact and brings
        # the pivot into [0.5, 1); unscaled, the entries underflow from
        # about |z| = 10 on
        piv, e = math.frexp(piv)
        scale = math.ldexp(1.0, -e)
        pu, pv = row[0], row[1]
        su, sv = pu * scale, pv * scale
        uu, uv, vv = uu * piv - su * pu, uv * piv - su * pv, vv * piv - sv * pv
        for q in range(t + 1, k):
            later, pq = rows[q], row[2 + q]
            later[0] = later[0] * piv - su * pq
            later[1] = later[1] * piv - sv * pq
            sq = pq * scale
            for r in range(2 + q, 2 + k):
                later[r] = later[r] * piv - sq * row[r]
        tol *= piv
    if not (uu > tol and uu * vv - uv * uv > tol * uu):
        raise SingularConditioningError("conditioning covariance is singular")
    return uv / math.sqrt(uu * vv)


def checked_ids_reference(u, v, z, n, error) -> tuple:
    """The gate's full rule, with no shortcut for scan-built ids: (u, v, zt)
    as ints, zt the distinct ids of z ascending, once u, v and every member
    of z are variable ids of 0..n-1 by `check_id`, u and v are distinct and
    z holds neither; otherwise raise `error`."""
    import numbers

    from sada.graph import check_id

    try:
        zt = tuple(z)
    except TypeError:
        hint = ", not a bitset" if isinstance(z, numbers.Integral) else ""
        raise error(f"z must be an iterable of variable ids{hint}, got {z!r}") from None
    ids = (u, v) + zt
    for w in ids:
        # an int in range, as almost every id is, skips the full rule
        if type(w) is not int or not 0 <= w < n:
            u, v, *zt = [check_id(x, n, error) for x in ids]
            break
    if u == v:
        raise error("need two distinct variables")
    zt = tuple(sorted(set(zt)))
    if u in zt or v in zt:
        raise error("conditioning set must exclude the queried pair")
    return u, v, zt


# The exact-mode steps below are kept as they were before the one-read side
# test, the search gate's fast path, the edge-sized Kahn sweep and the
# bitset oracle solver, so that each rewrite is checked against the code it
# replaced, answer for answer.


def d_separated_bits_reference(graph, u: int, v: int, z_bits: int) -> bool:
    """d-separation of u and v by z_bits, a bitset within or beyond An(u) |
    An(v), from u's and v's cached components one pair at a time: the pair
    test the side test replaced, with u's part and v's part in one body."""
    if (graph._nb_bits[u] >> v) & 1:
        return False
    anc, cache = graph._anc, graph._dsep_cache
    zu, zv = z_bits & anc[u], z_bits & anc[v]
    if zu | zv == z_bits:
        ru, du = cache.get((u, zu)) or graph._component(u, zu)
        if not (du >> v) & 1:
            return True
        rv, dv = cache.get((v, zv)) or graph._component(v, zv)
        if not (dv >> u) & 1:
            return True
        if ru & rv:
            return False
    return not graph._connected_bits(u, 1 << v, z_bits)


def per_member_exact_oracle(g):
    """An ExactCiOracle over g whose `_separable` checks each member of the
    side on its own, through `d_separated_bits_reference`."""
    from sada.citest import ExactCiOracle
    from sada.graph import bit_ids

    class PerMemberExactOracle(ExactCiOracle):
        def _separable(self, u, vs, candidates, max_cond) -> bool:
            graph, anc = self.graph, self.graph._anc
            zu = candidates & anc[u]
            below = graph._component(u, zu)[1]
            todo = vs & below if max_cond is None else vs
            while todo:
                low = todo & -todo
                todo ^= low
                v = low.bit_length() - 1
                zstar = zu | (candidates & anc[v])
                over = max_cond is not None and zstar.bit_count() > max_cond
                if (below & low or over) and not (
                        d_separated_bits_reference(graph, u, v, zstar)
                        and (not over or self._scan(u, v, bit_ids(zstar), max_cond) is not None)):
                    return False
            return True

    return PerMemberExactOracle(g)


def checked_search_reference(n: int, u, side, candidates, max_cond, pair: bool) -> tuple:
    """The search gate's full rule as it stood before the gate had any fast
    path, which `_checked_search`'s one rule must match: (u, side, max_cond) as
    ints, where side is the id v of a pair search and the bitset vs
    otherwise, {v} for a pair. In this order: max_cond is None or a count
    >= 0, v is a variable id, vs and candidates are bitsets over 0..n-1
    (non-negative ints, not bools), u is a variable id, vs does not hold u
    and the candidates hold neither u nor a member of vs."""
    from sada.citest import CiError
    from sada.graph import check_cap, check_id

    if max_cond is not None and not (type(max_cond) is int and max_cond >= 0):
        max_cond = check_cap(max_cond, CiError)
    if pair:
        if type(side) is not int or not 0 <= side < n:
            side = check_id(side, n, CiError)
        vs = 1 << side
    else:
        vs = side
    for name, bits in (("vs", vs), ("candidates", candidates)):
        if type(bits) is not int or bits < 0:
            got = bits if type(bits) is int else type(bits).__name__
            raise CiError(f"{name} must be a bitset (a non-negative int), got {got}")
        if bits >> n:
            raise CiError(f"{name} holds variable id {bits.bit_length() - 1}, out of range for n={n}")
    if type(u) is not int or not 0 <= u < n:
        u = check_id(u, n, CiError)
    if (vs >> u) & 1:
        raise CiError(f"need two distinct variables, but vs holds u={u}")
    if candidates & (vs | (1 << u)):
        raise CiError("conditioning set must exclude the queried pair")
    return u, side, max_cond


def kahn_sweep_reference(children, parents, nodes):
    """Kahn's algorithm with indegrees counted from `parents[x]`, x's parent
    bitset, over every id: (order, anc) or None, as `kahn_sweep` returns."""
    import heapq

    indegree = [bits.bit_count() for bits in parents]
    anc = [0] * len(parents)
    ready = [x for x in nodes if not indegree[x]]
    heapq.heapify(ready)
    order = []
    while ready:
        x = heapq.heappop(ready)
        order.append(x)
        up = anc[x] | (1 << x)
        for y in children.get(x, ()):
            anc[y] |= up
            indegree[y] -= 1
            if not indegree[y]:
                heapq.heappush(ready, y)
    return None if any(indegree) else (order, anc)


def oracle_solver_reference(g_true, variables):
    """The edges of g_true induced on the variable set, at significance 1.0,
    from a scan of every true edge."""
    from sada.solvers import EdgeSet, _checked_vars

    vs = set(_checked_vars(g_true.n, variables))
    result = EdgeSet()
    for u, v in g_true.edges:
        if u in vs and v in vs:
            result.add(u, v, 1.0)
    return result
