"""Conditional-independence oracles and conditioning-set search.

Every oracle equates independence with p_value > alpha_level. The exact
oracle's p-value is 1.0 or 0.0, from d-separation on a reference graph; it is
the tool for studying the framework with testing error switched off.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc, ndtr

from .graph import Dag, bit_ids, check_id
from .synth import SampleMatrix


class CiError(ValueError):
    """Invalid query against a conditional-independence oracle."""


class InsufficientSamplesError(CiError):
    """Too few samples for the requested conditioning size."""


class SingularConditioningError(CiError):
    """Conditioning covariance is singular (collinear or constant columns)."""


class UnreliableTestError(CiError):
    """Sample size is below the reliability heuristic for the table size."""


def is_real(x) -> bool:
    """True for a finite real number (numpy's included) that is not a bool."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


def is_alpha_level(a) -> bool:
    """True for a real number, not a bool, strictly between 0 and 1: the
    levels a CI test and SadaConfig accept."""
    return is_real(a) and 0.0 < a < 1.0


@dataclass(frozen=True)
class CiVerdict:
    independent: bool
    p_value: float


class CiOracle:
    """Interface consumed by the cut search and merge. The base class owns the
    query path: `query` checks the ids, orders the pair and caches verdicts,
    `find_separator` runs the one subset scan, `_scan`, over the pool `_pool`
    returns, and `separable` asks `_scan` whether u separates from every
    member of a whole side. Sides and pools are bitsets (bit w for variable
    w). A subclass sets `_n` (the variable count) and `_cache` (a dict) and
    supplies `_p_value`; it may narrow `_pool` and shortcut `separable`,
    which must answer as its per-member scan would."""

    alpha_level: float = 0.05

    def query(self, u: int, v: int, z=()) -> CiVerdict:
        """Independence of u and v given z, as p_value > alpha_level.
        A bad id raises CiError; a test the oracle cannot decide raises one
        of its subclasses."""
        zt = _checked_ids(self._n, u, v, z)
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
        """p-value for checked ids, u < v and zt sorted."""
        raise NotImplementedError

    def _pool(self, u, v, candidates):
        """The ids of the candidates bitset the scan draws subsets from, in
        ascending order, or None when no subset of them can separate u and v."""
        _checked_pair(self._n, u, v, candidates)
        return bit_ids(candidates)

    def find_separator(self, u, v, candidates, max_cond):
        """First separating subset of the candidates bitset, scanning sizes
        0..min(max_cond, pool size) in ascending-id lexicographic order;
        max_cond=None lifts the cap. Subsets the test cannot decide (unreliable,
        singular, too few samples) are skipped: independence needs affirmative
        evidence. Returns a frozenset of ids, or None when nothing separates."""
        pool = self._pool(u, v, candidates)
        return None if pool is None else self._scan(u, v, pool, max_cond)

    def _scan(self, u, v, pool, max_cond):
        """The subset scan of find_separator over the checked, ascending ids
        of `pool`, one `query` per subset."""
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
        for an empty vs. Every argument is checked before the first search;
        the searches then run in ascending id order and stop at the first
        member that fails."""
        u = _checked_search(self._n, u, vs, candidates)
        pool = bit_ids(candidates)
        return all(self._scan(u, v, pool, max_cond) is not None for v in bit_ids(vs))


def _checked_search(n: int, u, vs, candidates) -> int:
    """u as an int, once u is a variable id of 0..n-1, vs and candidates
    are bitsets over 0..n-1 (non-negative ints, not bools), vs does not hold
    u and the candidates hold neither u nor a member of vs."""
    for name, bits in (("vs", vs), ("candidates", candidates)):
        if type(bits) is not int or bits < 0:
            got = bits if type(bits) is int else type(bits).__name__
            raise CiError(f"{name} must be a bitset (a non-negative int), got {got}")
        if bits >> n:
            raise CiError(f"{name} holds variable id {bits.bit_length() - 1}, out of range for n={n}")
    if type(u) is not int or not 0 <= u < n:
        check_id(u, n, CiError)
        u = int(u)
    if (vs >> u) & 1:
        raise CiError(f"need two distinct variables, but vs holds u={u}")
    if candidates & (vs | (1 << u)):
        raise CiError("conditioning set must exclude the queried pair")
    return u


def _checked_pair(n: int, u, v, candidates) -> tuple:
    """(u, v) as ints, once v is a variable id of 0..n-1 and u, {v} and the
    candidates pass _checked_search."""
    if type(v) is not int or not 0 <= v < n:
        check_id(v, n, CiError)
        v = int(v)
    return _checked_search(n, u, 1 << v, candidates), v


def _checked_ids(n: int, u: int, v: int, z) -> tuple:
    """The distinct ids of z in ascending order, once u, v and every member
    of z are variable ids of 0..n-1, u and v are distinct and z holds
    neither u nor v."""
    zt = tuple(z)
    for w in (u, v) + zt:
        # an int in range, as almost every id is, skips the full rule
        if type(w) is not int or not 0 <= w < n:
            check_id(w, n, CiError)
    if u == v:
        raise CiError("need two distinct variables")
    zt = tuple(sorted(set(zt)))
    if u in zt or v in zt:
        raise CiError("conditioning set must exclude the queried pair")
    return zt


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
        if not is_alpha_level(alpha_level):
            raise CiError(f"alpha_level must be a real number in (0, 1), got {alpha_level!r}")
        self.alpha_level = alpha_level
        self._m = data.m
        self._n = data.n
        # by max == min: the std of a constant column such as 0.1 is
        # rounding noise, not 0
        vals = data.values
        self._constant = (vals.max(axis=0) == vals.min(axis=0)).tolist()
        with np.errstate(invalid="ignore", divide="ignore"):
            # nested lists: the per-query arithmetic runs on Python floats
            self._corr = np.corrcoef(data.values, rowvar=False).tolist()
        self._cache: dict = {}

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


class G2Kernel:
    """G2 and its degrees of freedom over stacked (stratum, k, k) count tables
    of at most m samples, for every stratum at once:

        G2 = 2 * [sum of x log x over the cells - the same over the row
                  marginals - the same over the column marginals + the
                  same over the stratum totals],

    with x log x read from a table of m + 1 entries. One matrix product
    spreads each stratum's cells into cells, row and column marginals and
    total; the dof sums (nonzero rows - 1) * (nonzero columns - 1) over the
    non-empty strata, so empty strata and zero marginals add nothing."""

    __slots__ = ("_xlogx", "_spread", "_sign", "_free")

    def __init__(self, num_states: int, m: int):
        k = int(num_states)
        x = np.arange(m + 1, dtype=float)
        self._xlogx = x * np.log(np.maximum(x, 1.0))
        eye, ones = np.eye(k, dtype=np.int64), np.ones((k, 1), dtype=np.int64)
        # columns: the k * k cells, the k row marginals, the k column
        # marginals and the total, for the cell index row * k + column
        self._spread = np.hstack((np.eye(k * k, dtype=np.int64), np.kron(eye, ones),
                                  np.kron(ones, eye), np.ones((k * k, 1), dtype=np.int64)))
        self._sign = np.concatenate((np.ones(k * k), -np.ones(2 * k), [1.0]))
        # nonzero rows - [stratum non-empty], nonzero columns - [stratum non-empty]
        free = np.zeros((k * k + 2 * k + 1, 2), dtype=np.int64)
        free[k * k:k * k + k, 0] = 1
        free[k * k + k:-1, 1] = 1
        free[-1] = -1
        self._free = free

    def __call__(self, tables) -> tuple:
        """(G2, dof) of the (stratum, k, k) count tables."""
        spread = tables.reshape(len(tables), -1) @ self._spread
        g2 = 2.0 * float((self._xlogx[spread] @ self._sign).sum())
        free = (spread > 0) @ self._free
        return max(g2, 0.0), int(free[:, 0] @ free[:, 1])

    def p_value(self, tables) -> float:
        """chi2 survival of G2; a degenerate table (dof 0) carries no evidence
        against independence."""
        g2, dof = self(tables)
        return 1.0 if dof == 0 else float(chdtrc(dof, g2))


class GSquaredOracle(CiOracle):
    """Log-likelihood-ratio independence test on stratified contingency
    tables, for discrete samples with a shared state count."""

    def __init__(self, data: SampleMatrix, alpha_level: float = 0.05):
        if data.kind != "discrete":
            raise CiError("G-squared needs discrete samples")
        if not is_alpha_level(alpha_level):
            raise CiError(f"alpha_level must be a real number in (0, 1), got {alpha_level!r}")
        self.alpha_level = alpha_level
        # one contiguous code array per column
        self._cols = np.ascontiguousarray(data.values.T)
        self._m = data.m
        self._n = data.n
        self._k = int(data.num_states)
        self._g2 = G2Kernel(self._k, self._m)
        self._cache: dict = {}

    def _p_value(self, u, v, zt) -> float:
        k = self._k
        nominal_dof = (k - 1) ** 2 * k ** len(zt)
        if self._m < 10 * nominal_dof:
            raise UnreliableTestError(
                f"m={self._m} below 10*dof={10 * nominal_dof} for |z|={len(zt)}")
        cols = self._cols
        code = cols[v] + k * cols[u]
        base = k * k
        for w in zt:
            code += base * cols[w]
            base *= k
        return self._g2.p_value(np.bincount(code, minlength=base).reshape(-1, k, k))


class ExactCiOracle(CiOracle):
    """d-separation on a known graph, as p-value 1.0 (separated) or 0.0.
    Some Z within a pool R separates u and v exactly when the pool's
    restriction to ancestors of {u, v} does, so the scan's pool is that
    ancestor part, and nothing when even all of it does not separate."""

    def __init__(self, g: Dag):
        self.graph = g
        self._n = g.n
        self._cache: dict = {}

    def _p_value(self, u, v, zt) -> float:
        # uncached: `query` already keeps the verdict
        z_bits = sum(1 << int(w) for w in zt)
        return 0.0 if self.graph._connected_bits(int(u), 1 << int(v), z_bits) else 1.0

    def _pool(self, u, v, candidates):
        # any separating subset shrinks to its ancestor part without getting
        # bigger or later in the scan order, so the first hit lives in it
        u, v = _checked_pair(self._n, u, v, candidates)
        anc = self.graph._ancestor_bits()
        zstar = candidates & (anc[u] | anc[v])
        return bit_ids(zstar) if self.graph._d_separated_bits(u, v, zstar) else None

    def separable(self, u, vs, candidates, max_cond) -> bool:
        # The lowest member is tested on its own, since most failing sides
        # fail there. The rest take one search over the moral graph of
        # An({u} | rest | Z), Z = pool & An({u} | rest): a member it does not
        # reach is separated by its own ancestor pool, whose moral graph is
        # a subgraph of that one. Reached members, and under a cap unreached
        # ones whose ancestor pool exceeds it, take the per-pair check.
        u = _checked_search(self._n, u, vs, candidates)
        if not vs:
            return True
        anc = self.graph._ancestor_bits()
        first = vs & -vs
        v = first.bit_length() - 1
        if not self._pair_separable(u, v, candidates & (anc[u] | anc[v]), max_cond):
            return False
        rest = vs ^ first
        if not rest:
            return True
        inside = self.graph._ancestral_set(u, rest)
        reached = self.graph._connected_bits(u, rest, candidates & inside, inside)
        todo = reached if max_cond is None else rest
        for v in bit_ids(todo):
            zstar = candidates & (anc[u] | anc[v])
            if ((reached >> v) & 1 or (max_cond is not None and zstar.bit_count() > max_cond)) \
                    and not self._pair_separable(u, v, zstar, max_cond):
                return False
        return True

    def _pair_separable(self, u, v, zstar, max_cond) -> bool:
        """Whether some subset of the candidates within the cap separates u
        and v, given zstar, their ancestor part: a pool within the cap is
        decided by zstar itself, a larger one by the subset scan."""
        return self.graph._d_separated_bits(u, v, zstar) and (
            max_cond is None or zstar.bit_count() <= max_cond
            or self._scan(u, v, bit_ids(zstar), max_cond) is not None)
