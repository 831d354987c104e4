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

from .graph import Dag, bit_ids, check_alpha_level, check_cap, check_id, checked_ids, pair_ids
from .synth import SampleMatrix


class CiError(ValueError):
    """Invalid query against a conditional-independence oracle."""


class InsufficientSamplesError(CiError):
    """Too few samples for the requested conditioning size."""


class SingularConditioningError(CiError):
    """Conditioning covariance is singular (collinear or constant columns)."""


class UnreliableTestError(CiError):
    """Sample size is below the reliability heuristic for the table size."""


@dataclass(frozen=True, slots=True)
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
        self.alpha_level = check_alpha_level(alpha_level, CiError)
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
    u nor a member of vs. Python ints that pass all of it, as the framework
    builds them, are returned as they are: the full rule would give the same
    value."""
    if (type(u) is int and type(side) is int and type(candidates) is int
            and (max_cond is None or type(max_cond) is int and max_cond >= 0) and 0 <= u < n):
        vs = (1 << side if 0 <= side < n else -1) if pair else side
        if (vs >= 0 and candidates >= 0 and not (vs | candidates) >> n and not (vs >> u) & 1
                and not candidates & (vs | (1 << u))):
            return u, side, max_cond
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


# A conditional variance at or below this fraction of the variable's own
# variance is rounding noise of an exactly or nearly collinear set, not a
# property of the data: Fisher-z refuses it as singular.
PIVOT_TOL = 1e-10


class PartialCorrelationOracle(CiOracle):
    """Fisher-z test of the partial correlation, from one precomputed
    correlation matrix; suited to the linear continuous model. The oracle
    keeps the elimination of its last (u, v, zt[:-1]): the subsets a scan
    issues in lexicographic order share that prefix in long runs, so each
    of them costs one more elimination."""

    def __init__(self, data: SampleMatrix, alpha_level: float = 0.05):
        if data.kind != "continuous":
            raise CiError("partial correlation needs continuous samples")
        super().__init__(data.n, alpha_level)
        self._m = data.m
        # a list, or None when no column is constant: the per-query check
        # runs on Python bools
        self._constant = data.constant.tolist() if data.constant.any() else None
        with np.errstate(invalid="ignore", divide="ignore"):
            # nested lists: the per-query arithmetic runs on Python floats
            self._corr = np.corrcoef(data.values, rowvar=False).tolist()
        # ((u, v, zt[:-1]), its _eliminate state) of the last conditioned test
        self._prefix = (None, None)

    def _p_value(self, u, v, zt) -> float:
        eff = self._m - len(zt) - 3
        if eff < 1:
            raise InsufficientSamplesError(
                f"m={self._m} cannot support |z|={len(zt)}")
        if self._constant is not None:
            for w in (u, v) + zt:
                if self._constant[w]:
                    raise SingularConditioningError(f"column {w} is constant")
        if zt:
            key = (u, v, zt[:-1])
            held, state = self._prefix
            if held != key:
                state = _eliminate(self._corr, u, v, key[2])
                self._prefix = (key, state)
            r = _partial_corr(_push(self._corr, state, zt[-1]))
        else:
            r = self._corr[u][v]
        if not math.isfinite(r) or abs(r) > 1 + 1e-6:
            raise SingularConditioningError("partial correlation is not identifiable")
        r = min(max(r, -1 + 1e-15), 1 - 1e-15)
        stat = math.sqrt(eff) * math.atanh(r)
        return two_sided_normal_sf(stat)


_SQRT_HALF = math.sqrt(0.5)


def two_sided_normal_sf(stat: float) -> float:
    """Two-sided normal tail P(|Z| > |stat|) = erfc(|stat| / sqrt(2))."""
    return math.erfc(abs(stat) * _SQRT_HALF)


# The partial correlation of u and v given a nonempty zt, from the nested
# correlation lists c, is `_partial_corr(_eliminate(c, u, v, zt))`. The
# conditioning variables are eliminated one at a time, in the order zt,
# each as a Schur complement scaled by its pivot, so nothing is divided
# before the end. Each pair of ids is read from the row of the one earlier
# in the order u, v, zt: np.corrcoef is not symmetric to the last bit, and
# this order fixes every result. Every entry goes through the same float
# operations in the same order whichever prefix is held. A pivot, the
# variance of u given zt or that of v given zt and u not above PIVOT_TOL
# times its diagonal entry (1 in a correlation matrix) raises
# SingularConditioningError: the set is collinear, or the pair is given it,
# up to rounding.


def _eliminate(c, u, v, head) -> tuple:
    """The state after eliminating the ids of `head`, in order, from the
    entries of u and v."""
    cu, cv = c[u], c[v]
    state = (cu, cv, cu[u], cu[v], cv[v], PIVOT_TOL, (), ())
    for w in head:
        state = _push(c, state, w)
    return state


def _push(c, state, w) -> tuple:
    """The state after eliminating w, an id after every id eliminated in
    `state`, as well. A state is (c[u], c[v], uu, uv, vv, tol, the rows c[x]
    of the ids eliminated, steps), with one step (pivot, scale, su, sv,
    scaled) per id x, scaled[t] being x's entry with the t-th id, once the
    steps before t have gone through it, times step t's scale. w's entries with those ids, u, v and itself go through each held
    step in turn; the entries are scaled by the product of the pivots so
    far, and so is tol."""
    cu, cv, uu, uv, vv, tol, rows, steps = state
    wu, wv, ww = cu[w], cv[w], c[w][w]
    # done[t]: step t's pivot and w's entry with the id of step t once the
    # steps before t have gone through it
    done = []
    scaled = []
    for row, (piv, scale, su, sv, sq) in zip(rows, steps):
        pw = row[w]
        for (pt, wt), st in zip(done, sq):
            pw = pw * pt - st * wt
        done.append((piv, pw))
        sw = pw * scale
        scaled.append(sw)
        wu = wu * piv - su * pw
        wv = wv * piv - sv * pw
        ww = ww * piv - sw * pw
    if not ww > tol:
        raise SingularConditioningError("conditioning covariance is singular")
    # each step also scales by a power of two, which is exact and brings
    # the pivot into [0.5, 1); unscaled, the entries underflow from about
    # |z| = 10 on
    piv, e = math.frexp(ww)
    scale = math.ldexp(1.0, -e)
    su, sv = wu * scale, wv * scale
    return (cu, cv, uu * piv - su * wu, uv * piv - su * wv, vv * piv - sv * wv,
            tol * piv, rows + (c[w],), steps + ((piv, scale, su, sv, scaled),))


def _partial_corr(state) -> float:
    """The partial correlation of u and v given the ids eliminated in
    `state`."""
    uu, uv, vv, tol = state[2:6]
    if not (uu > tol and uu * vv - uv * uv > tol * uu):
        raise SingularConditioningError("conditioning covariance is singular")
    return uv / math.sqrt(uu * vv)


# x / 2 is clamped into [_H_MIN, _H_MAX] before the series: x = 0 then
# sums to exactly 1, and x past 2 * _H_MAX, inf included, to exactly 0
_H_MIN, _H_MAX = 5e-324, 1e300
# Below this many entries a block takes the single-test path entry by entry:
# numpy's fixed cost per call, about 20 operations, outweighs the saving
_CHI2_BLOCK_MIN = 16


def chi2_sf(x, dof):
    """Upper tail P(X > x) of the chi-squared distribution with integer dof
    >= 0 (dof 0 is the point mass at 0, whose tail is 0): a float for a
    float x and an int dof, and an array for a 1-d array x, with dof an int
    or an int array of its shape. NaN gives NaN. A block carries, entry for
    entry, the bits a single call gives.

    With h = x / 2 and dof = 2 * half + odd, the tail is the finite series
    sum over j < half of exp(-h) * h^(j + a) / Gamma(j + a + 1), a = odd / 2,
    plus erfc(sqrt(h)) for odd dof (Abramowitz & Stegun 26.4.4 and 26.4.21).
    Its largest term, at j = floor(h - a) within range, is taken in log space
    with math.lgamma and the others by ratios from it, outward, down then
    up, so exp(-h) underflowing for h > 745 or h^j overflowing leaves the
    sum intact; a term that no longer changes the sum ends its direction,
    as every later one is smaller. exp and log come from numpy in both
    paths, since its SIMD ufuncs may round differently from libm's."""
    if isinstance(x, np.ndarray):
        if len(x) < _CHI2_BLOCK_MIN:
            dofs = dof.tolist() if isinstance(dof, np.ndarray) else [int(dof)] * len(x)
            return np.array([chi2_sf(v, d) for v, d in zip(x.tolist(), dofs)])
        if not isinstance(dof, np.ndarray):
            return _chi2_sf_block(x, int(dof))
        present = np.flatnonzero(np.bincount(dof))
        if len(present) == 1:
            return _chi2_sf_block(x, int(present[0]))
        # one block per dof, so that each runs its own series length
        p = np.empty(len(x))
        for d in present.tolist():
            at = np.flatnonzero(dof == d)
            p[at] = _chi2_sf_block(x[at], d)
        return p
    h = 0.5 * x
    if not _H_MIN <= h <= _H_MAX:
        if h != h:
            return math.nan
        h = _H_MIN if h < _H_MIN else _H_MAX
    half = dof >> 1
    odd = dof & 1
    s = 0.0
    if half:
        a = 0.5 * odd
        # h - a > -1, so int() is the floor
        top = int(h - a)
        if top >= half:
            top = half - 1
        e = top + a
        s = t = peak = float(np.exp(e * float(np.log(h)) - h - math.lgamma(e + 1.0)))
        j = e
        while j > a:
            t = t * j / h
            if s + t == s:
                break
            s += t
            j -= 1.0
        t = peak
        j = e + 1.0
        while j < half:
            t = t * h / j
            if s + t == s:
                break
            s += t
            j += 1.0
    if odd:
        s += math.erfc(math.sqrt(h))
    return s


def _chi2_sf_block(x, dof: int) -> np.ndarray:
    """`chi2_sf` over a 1-d array x at one dof, through the same operations
    in the same order. A term outside an entry's range counts as 0, and one
    that would end an entry's direction cannot change it while the loop
    goes on for the others."""
    h = np.minimum(np.maximum(0.5 * x, _H_MIN), _H_MAX)
    half = dof >> 1
    odd = dof & 1
    if not half:
        s = 0.0 * h
    else:
        a = 0.5 * odd
        # fmin keeps a NaN's top in range, for the lgamma index
        if odd:
            top = np.maximum(np.fmin(np.floor(h - a), half - 1), 0.0)
            e = top + a
        else:
            e = top = np.fmin(np.floor(h), half - 1)
        lgamma = np.array([math.lgamma(j + a + 1.0) for j in range(half)])
        s = t = peak = np.exp(e * np.log(h) - h - lgamma[top.astype(np.intp)])
        steps = half - 1
        for d in range(1, half):
            # at an even dof, e - (d - 1) is 0 one step past an entry's
            # range, so its t stays 0 from there; an odd one takes the mask
            factor = e - (d - 1) if d > 1 else e
            t = t * (np.where(top >= d, factor, 0.0) if odd else factor) / h
            grown = s + t
            if d < steps and (grown == s).all():
                break
            s = grown
        t = peak
        for d in range(1, half):
            t = t * np.where(top < half - d, h, 0.0) / (e + d)
            grown = s + t
            if d < steps and (grown == s).all():
                break
            s = grown
    if odd:
        s = s + np.fromiter(map(math.erfc, np.sqrt(h).tolist()), float, len(h))
    return s


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
    tables a caller scores per call: G2_BLOCK_CODES codes, m per table.
    `pair_tables` gathers and counts a block's codes in two (block, m)
    arrays the kernel allocates once, as scratch this size churns the heap
    when it comes and goes with each block."""

    __slots__ = ("block", "_k", "_xlogx", "_spread", "_sign", "_free", "_codes", "_other",
                 "_offsets")

    def __init__(self, num_states: int, m: int):
        k = self._k = num_states
        self.block = max(1, G2_BLOCK_CODES // m)
        self._codes, self._other = np.empty((2, self.block, m), dtype=np.int64)
        # table t's codes start at t * k * k
        self._offsets = (k * k) * np.arange(self.block)[:, None]
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

    def pair_tables(self, cols, a, b) -> np.ndarray:
        """The (len(a), k, k) count tables of the int64 code rows cols[a[i]],
        the row variable, against cols[b[i]], for at most `block` pairs of
        ids in range, from one offset bincount."""
        k, count = self._k, len(a)
        codes, other = self._codes[:count], self._other[:count]
        # mode="raise" would gather through a buffer of its own
        np.take(cols, a, axis=0, out=codes, mode="clip")
        np.take(cols, b, axis=0, out=other, mode="clip")
        codes *= k
        codes += other
        codes += self._offsets[:count]
        return np.bincount(codes.ravel(), minlength=count * k * k).reshape(-1, k, k)

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
        return 1.0 if dof == 0 else chi2_sf(g2, dof)

    def table_p_values(self, tables) -> np.ndarray:
        """Each (k, k) table's own p-value, bit for bit what `p_value` gives
        for it as a one-stratum stack; dof 0 gives 1.0."""
        half, free = self._terms(tables)
        dof = free[:, 0] * free[:, 1]
        p = chi2_sf(np.maximum(2.0 * half, 0.0), dof)
        p[dof == 0] = 1.0
        return p


class GSquaredOracle(CiOracle):
    """Log-likelihood-ratio independence test on stratified contingency
    tables, for discrete samples with a shared state count. A marginal test
    of (u, v), u < v, reads the p-values of the kernel block of pairs that
    holds it, in the row-major order of the pairs: the first marginal test
    in a block scores all of it in one kernel call, and the block is kept,
    as Fisher-z keeps its correlations."""

    def __init__(self, data: SampleMatrix, alpha_level: float = 0.05):
        if data.kind != "discrete":
            raise CiError("G-squared needs discrete samples")
        super().__init__(data.n, alpha_level)
        # one contiguous code array per column
        self._cols = np.ascontiguousarray(data.values.T, dtype=np.int64)
        self._m = data.m
        self._k = data.num_states
        self._g2 = G2Kernel(self._k, self._m)
        pairs = data.n * (data.n - 1) // 2
        self._blocks = [None] * -(-pairs // self._g2.block)

    def _p_value(self, u, v, zt) -> float:
        k = self._k
        nominal_dof = (k - 1) ** 2 * k ** len(zt)
        if self._m < 10 * nominal_dof:
            raise UnreliableTestError(
                f"m={self._m} below 10*dof={10 * nominal_dof} for |z|={len(zt)}")
        if not zt:
            # row u of the pairs starts at u * (2n - 1 - u) / 2
            n = self._n
            c, at = divmod(u * (2 * n - 1 - u) // 2 + v - u - 1, self._g2.block)
            block = self._blocks[c]
            if block is None:
                block = self._blocks[c] = self._marginal_block(c)
            return block[at]
        cols = self._cols
        code = cols[v] + k * cols[u]
        base = k * k
        for w in zt:
            code += base * cols[w]
            base *= k
        return self._g2.p_value(np.bincount(code, minlength=base).reshape(-1, k, k))

    def _marginal_block(self, c) -> list:
        """The marginal p-values of the c-th kernel block of pairs."""
        g2, n = self._g2, self._n
        lo = c * g2.block
        a, b = pair_ids(np.arange(lo, min(lo + g2.block, n * (n - 1) // 2)), n)
        return g2.table_p_values(g2.pair_tables(self._cols, a, b)).tolist()


class ExactCiOracle(CiOracle):
    """d-separation on a known graph, as p-value 1.0 (separated) or 0.0,
    through the three hooks behind the base class's gate. Some Z within a
    pool R separates u and v exactly when the pool's restriction to
    ancestors of {u, v} does, so the scan's pool is that ancestor part, and
    nothing when even all of it does not separate. `Dag._separated_side`
    decides that for a whole side; `_pool` asks it about {v}."""

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
        if not self.graph._separated_side(u, 1 << v, candidates):
            return None
        anc = self.graph._anc
        return bit_ids(candidates & (anc[u] | anc[v]))

    def _separable(self, u, vs, candidates, max_cond) -> bool:
        # each member's whole ancestor pool zstar must separate it, and a
        # member it leaves connected has no separating subset, cap or not;
        # under a cap a member whose zstar exceeds it needs a subset scan
        # too, lowest first, up to the first that fails
        if not self.graph._separated_side(u, vs, candidates):
            return False
        if max_cond is not None:
            anc = self.graph._anc
            for v in bit_ids(vs):
                zstar = candidates & (anc[u] | anc[v])
                if zstar.bit_count() > max_cond and self._scan(u, v, bit_ids(zstar),
                                                               max_cond) is None:
                    return False
        return True
