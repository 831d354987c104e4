"""Conditional-independence oracles and conditioning-set search.

Every oracle equates independence with p_value > alpha_level. The exact
oracle's p-value is 1.0 or 0.0, from d-separation on a reference graph; it is
the tool for studying the framework with testing error switched off.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc, ndtr

from .graph import Dag, bit_ids, check_id, checked_ids, is_alpha_level, is_cap
from .synth import SampleMatrix


class CiError(ValueError):
    """Invalid query against a conditional-independence oracle."""


class InsufficientSamplesError(CiError):
    """Too few samples for the requested conditioning size."""


class SingularConditioningError(CiError):
    """Conditioning covariance is singular (collinear or constant columns)."""


class UnreliableTestError(CiError):
    """Sample size is below the reliability heuristic for the table size."""


@dataclass(frozen=True)
class CiVerdict:
    independent: bool
    p_value: float


class CiOracle:
    """Interface consumed by the cut search and merge. Its public entry
    points, `query`, `find_separator` and `separable`, check their arguments
    once, before any subclass code runs; the hooks then take ids as ints in
    range and bitsets over 0..n-1 (bit w for variable w), and check nothing.
    A subclass supplies `_p_value(u, v, zt)`, whose verdict `query` caches,
    and may narrow `_pool(u, v, candidates)`, the ids `find_separator` scans
    subsets of, and shortcut `_separable(u, vs, candidates, max_cond)` for a
    nonempty side, which must answer as its per-member scans would. The
    constructor sets the variable count `_n`, the verdict cache `_cache`,
    the memo of failed searches `_failed` and `alpha_level`."""

    def __init__(self, n: int, alpha_level: float = 0.05):
        if not is_alpha_level(alpha_level):
            raise CiError(f"alpha_level must be a real number in (0, 1), got {alpha_level!r}")
        self.alpha_level = alpha_level
        self._n = n
        self._cache: dict = {}
        # (u, v, candidates, max_cond) of every find_separator that found nothing
        self._failed: set = set()

    def query(self, u: int, v: int, z=()) -> CiVerdict:
        """Independence of u and v given z, an iterable of ids, as
        p_value > alpha_level. A bad id raises CiError; a test the oracle
        cannot decide raises one of its subclasses."""
        u, v, zt = checked_ids(u, v, z, self._n, CiError)
        if u > v:
            u, v = v, u
        key = (u, v, zt)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        p = self._p_value(u, v, zt)
        verdict = self._cache[key] = CiVerdict(p > self.alpha_level, p)
        return verdict

    def _p_value(self, u: int, v: int, zt: tuple) -> float:
        """p-value for u < v and zt sorted."""
        raise NotImplementedError

    def _pool(self, u, v, candidates):
        """The ids of the candidates bitset the scan draws subsets from, in
        ascending order, or None when no subset of them can separate u and v."""
        return bit_ids(candidates)

    def find_separator(self, u, v, candidates, max_cond):
        """First separating subset of the candidates bitset, scanning sizes
        0..min(max_cond, pool size) in ascending-id lexicographic order;
        max_cond=None lifts the cap. Subsets the test cannot decide (unreliable,
        singular, too few samples) are skipped: independence needs affirmative
        evidence. Returns a frozenset of ids, or None when nothing separates.

        Verdicts are cached and refusals repeat, so a search is a function of
        its arguments: one that found nothing is remembered, once they have
        passed the gate, and a repeat returns None without a scan."""
        u, v, max_cond = _checked_search(self._n, u, v, candidates, max_cond, True)
        key = (u, v, candidates, max_cond)
        if key in self._failed:
            return None
        pool = self._pool(u, v, candidates)
        if pool is None:
            return None
        sep = self._scan(u, v, pool, max_cond)
        if sep is None:
            self._failed.add(key)
        return sep

    def _scan(self, u, v, pool, max_cond):
        """The subset scan of find_separator over the ascending ids of
        `pool`, one `query` per subset."""
        limit = len(pool) if max_cond is None else min(max_cond, len(pool))
        for size in range(limit + 1):
            for sub in itertools.combinations(pool, size):
                try:
                    verdict = self.query(u, v, sub)
                except (UnreliableTestError, SingularConditioningError,
                        InsufficientSamplesError):
                    continue
                if verdict.independent:
                    return frozenset(sub)
        return None

    def separable(self, u, vs, candidates, max_cond) -> bool:
        """Whether u separates from every member of the bitset vs, each
        through some subset of the candidates bitset within the cap; True
        for an empty vs. Every argument is checked before the first search."""
        u, vs, max_cond = _checked_search(self._n, u, vs, candidates, max_cond, False)
        return not vs or self._separable(u, vs, candidates, max_cond)

    def _separable(self, u, vs, candidates, max_cond) -> bool:
        """`separable` for a nonempty vs: the per-member scans, in ascending
        id order, up to the first member that fails."""
        pool = bit_ids(candidates)
        return all(self._scan(u, v, pool, max_cond) is not None for v in bit_ids(vs))


def _checked_search(n: int, u, side, candidates, max_cond, pair: bool) -> tuple:
    """The gate of both searches: (u, side, max_cond) as ints, where side is
    the id v of a pair search and the bitset vs otherwise, {v} for a pair.
    In this order: max_cond is None or a count >= 0, v is a variable id, vs
    and candidates are bitsets over 0..n-1 (non-negative ints, not bools),
    u is a variable id, vs does not hold u and the candidates hold neither
    u nor a member of vs."""
    if max_cond is not None and not (type(max_cond) is int and max_cond >= 0):
        if not is_cap(max_cond):
            raise CiError(f"max_cond must be None or an integer >= 0, got {max_cond!r}")
        max_cond = int(max_cond)
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


# A conditional variance at or below this fraction of the variable's own
# variance is rounding noise of an exactly or nearly collinear set, not a
# property of the data: Fisher-z refuses it as singular.
PIVOT_TOL = 1e-10


class PartialCorrelationOracle(CiOracle):
    """Fisher-z test of the partial correlation, from one precomputed
    correlation matrix; suited to the linear continuous model."""

    def __init__(self, data: SampleMatrix, alpha_level: float = 0.05):
        if data.kind != "continuous":
            raise CiError("partial correlation needs continuous samples")
        super().__init__(data.n, alpha_level)
        self._m = data.m
        # a list: the per-query check runs on Python bools
        self._constant = data.constant.tolist()
        with np.errstate(invalid="ignore", divide="ignore"):
            # nested lists: the per-query arithmetic runs on Python floats
            self._corr = np.corrcoef(data.values, rowvar=False).tolist()

    def _p_value(self, u, v, zt) -> float:
        eff = self._m - len(zt) - 3
        if eff < 1:
            raise InsufficientSamplesError(
                f"m={self._m} cannot support |z|={len(zt)}")
        for w in (u, v) + zt:
            if self._constant[w]:
                raise SingularConditioningError(f"column {w} is constant")
        r = _partial_corr(self._corr, u, v, zt) if zt else self._corr[u][v]
        if not math.isfinite(r) or abs(r) > 1 + 1e-6:
            raise SingularConditioningError("partial correlation is not identifiable")
        r = min(max(r, -1 + 1e-15), 1 - 1e-15)
        stat = math.sqrt(eff) * math.atanh(r)
        # exactly the normal survival function, without the distribution-object overhead
        return float(2 * ndtr(-abs(stat)))


def _partial_corr(c, u, v, zt) -> float:
    """Partial correlation of u and v given a nonempty zt, from the nested
    correlation lists c. The conditioning variables are eliminated one at a
    time, in the order zt, each as a Schur complement scaled by its pivot, so
    nothing is divided before the end. Each pair of ids is read from the row
    of the one earlier in the order u, v, zt: np.corrcoef is not symmetric
    to the last bit, and this order fixes every result. Raises
    SingularConditioningError when a pivot, the variance of u given zt or
    that of v given zt and u is not above PIVOT_TOL times its diagonal entry
    (1 in a correlation matrix): the set is collinear, or the pair is given
    it, up to rounding."""
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


# The G2 callers score their count tables a block at a time. A block's code
# array, one code per sample per table, holds about this many entries, though
# a block never takes fewer than one table: that spreads numpy's per-call
# cost over many tables while peak memory stays bounded whatever n and m are.
G2_BLOCK_CODES = 1 << 14


class G2Kernel:
    """G2 and its degrees of freedom over stacked (stratum, k, k) count tables
    of at most m samples:

        G2 = 2 * [sum of x log x over the cells - the same over the row
                  marginals - the same over the column marginals + the
                  same over the stratum totals],

    with x log x read from a table of m + 1 entries. One matrix product
    spreads each table's cells into cells, row and column marginals and
    total, and each table's signed sum is reduced along its own row, so a
    table's terms carry the same bits whatever other tables share the call.
    The dof is (nonzero rows - 1) * (nonzero columns - 1) per non-empty
    table, so empty tables and zero marginals add nothing. `block` is the
    tables a caller scores per call: G2_BLOCK_CODES codes, m per table."""

    __slots__ = ("block", "_k", "_xlogx", "_spread", "_sign", "_free")

    def __init__(self, num_states: int, m: int):
        k = self._k = int(num_states)
        self.block = max(1, G2_BLOCK_CODES // m)
        x = np.arange(m + 1, dtype=float)
        self._xlogx = x * np.log(np.maximum(x, 1.0))
        eye, ones = np.eye(k, dtype=np.int64), np.ones((k, 1), dtype=np.int64)
        # columns: the k * k cells, the k row marginals, the k column
        # marginals and the total, for the cell index row * k + column
        self._spread = np.hstack((np.eye(k * k, dtype=np.int64), np.kron(eye, ones),
                                  np.kron(ones, eye), np.ones((k * k, 1), dtype=np.int64)))
        self._sign = np.concatenate((np.ones(k * k), -np.ones(2 * k), [1.0]))
        # nonzero rows - [table non-empty], nonzero columns - [table non-empty]
        free = np.zeros((k * k + 2 * k + 1, 2), dtype=np.int64)
        free[k * k:k * k + k, 0] = 1
        free[k * k + k:-1, 1] = 1
        free[-1] = -1
        self._free = free

    def pair_tables(self, x, ys) -> np.ndarray:
        """The (len(ys), k, k) count tables of x, the row variable, against
        each row of ys, from one offset bincount; x is one column of codes
        or one per row of ys."""
        k = self._k
        codes = ys + k * x + (k * k) * np.arange(len(ys))[:, None]
        return np.bincount(codes.ravel(), minlength=len(ys) * k * k).reshape(-1, k, k)

    def _terms(self, tables) -> tuple:
        """Each table's G2 / 2 and its two free counts, the (table, 2) array
        whose row product is the table's dof."""
        spread = tables.reshape(len(tables), -1) @ self._spread
        # a row-wise reduce, not a matrix-vector product: BLAS may round a
        # row differently with other rows beside it
        half = np.add.reduce(self._xlogx[spread] * self._sign, axis=1)
        return half, (spread > 0) @ self._free

    def __call__(self, tables) -> tuple:
        """(G2, dof) of the (stratum, k, k) count tables as one stratified test."""
        half, free = self._terms(tables)
        return max(2.0 * float(half.sum()), 0.0), int(free[:, 0] @ free[:, 1])

    def p_value(self, tables) -> float:
        """chi2 survival of the stratified G2; a degenerate test (dof 0)
        carries no evidence against independence."""
        g2, dof = self(tables)
        return 1.0 if dof == 0 else float(chdtrc(dof, g2))

    def table_p_values(self, tables) -> np.ndarray:
        """Each (k, k) table's own p-value, bit for bit what `p_value` gives
        for it as a one-stratum stack; dof 0 gives 1.0."""
        half, free = self._terms(tables)
        g2 = np.maximum(2.0 * half, 0.0)
        dof = free[:, 0] * free[:, 1]
        p = np.ones(len(tables))
        live = dof > 0
        p[live] = chdtrc(dof[live], g2[live])
        return p


class GSquaredOracle(CiOracle):
    """Log-likelihood-ratio independence test on stratified contingency
    tables, for discrete samples with a shared state count. A marginal test
    of (u, v), u < v, reads u's row: the p-values of (u, w) for every w > u,
    scored a block of tables per kernel call on the first marginal test
    with u as the lower id, and kept, as Fisher-z keeps its correlations."""

    def __init__(self, data: SampleMatrix, alpha_level: float = 0.05):
        if data.kind != "discrete":
            raise CiError("G-squared needs discrete samples")
        super().__init__(data.n, alpha_level)
        # one contiguous code array per column
        self._cols = np.ascontiguousarray(data.values.T)
        self._m = data.m
        self._k = int(data.num_states)
        self._g2 = G2Kernel(self._k, self._m)
        self._rows = [None] * data.n

    def _p_value(self, u, v, zt) -> float:
        k = self._k
        nominal_dof = (k - 1) ** 2 * k ** len(zt)
        if self._m < 10 * nominal_dof:
            raise UnreliableTestError(
                f"m={self._m} below 10*dof={10 * nominal_dof} for |z|={len(zt)}")
        if not zt:
            row = self._rows[u]
            if row is None:
                row = self._rows[u] = self._marginal_row(u)
            return row[v - u - 1]
        cols = self._cols
        code = cols[v] + k * cols[u]
        base = k * k
        for w in zt:
            code += base * cols[w]
            base *= k
        return self._g2.p_value(np.bincount(code, minlength=base).reshape(-1, k, k))

    def _marginal_row(self, u) -> list:
        """The marginal p-values of (u, w) for w = u + 1, ..., n - 1, a
        kernel block of tables per call."""
        cols, g2 = self._cols, self._g2
        row = []
        for lo in range(u + 1, self._n, g2.block):
            tables = g2.pair_tables(cols[u], cols[lo:lo + g2.block])
            row += g2.table_p_values(tables).tolist()
        return row


class ExactCiOracle(CiOracle):
    """d-separation on a known graph, as p-value 1.0 (separated) or 0.0,
    through the three hooks behind the base class's gate. Some Z within a
    pool R separates u and v exactly when the pool's restriction to
    ancestors of {u, v} does, so the scan's pool is that ancestor part, and
    nothing when even all of it does not separate. Those decisions come
    from the graph's cached moral components, so `_separable` checks a side
    against one component of u."""

    def __init__(self, g: Dag):
        super().__init__(g.n)
        self.graph = g

    def _p_value(self, u, v, zt) -> float:
        # uncached: `query` already keeps the verdict
        z_bits = sum(1 << w for w in zt)
        return 0.0 if self.graph._connected_bits(u, 1 << v, z_bits) else 1.0

    def _pool(self, u, v, candidates):
        # any separating subset shrinks to its ancestor part without getting
        # bigger or later in the scan order, so the first hit lives in it
        anc = self.graph._anc
        zstar = candidates & (anc[u] | anc[v])
        return bit_ids(zstar) if self.graph._d_separated_bits(u, v, zstar) else None

    def _separable(self, u, vs, candidates, max_cond) -> bool:
        # u's part of every member's ancestor pool is candidates & An(u), so
        # one cached component D_u serves the whole side: a member outside
        # it is separated by its own ancestor pool. Members inside, and under
        # a cap those whose ancestor pool zstar exceeds it, take the per-pair
        # check, lowest first, up to the first that fails: zstar must
        # separate, and one over the cap needs a subset scan too.
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
                    graph._d_separated_bits(u, v, zstar)
                    and (not over or self._scan(u, v, bit_ids(zstar), max_cond) is not None)):
                return False
        return True
