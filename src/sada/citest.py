"""Conditional-independence oracles and conditioning-set search.

Statistical oracles equate independence with p_value > alpha_level. The exact
oracle answers from d-separation on a reference graph and is the tool for
studying the framework with testing error switched off.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc, ndtr

from .graph import Dag
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
    """Interface consumed by the cut search and merge: query plus the two
    separator helpers, which subclasses may specialize."""

    alpha_level: float = 0.05

    def query(self, u: int, v: int, z=()) -> CiVerdict:
        raise NotImplementedError

    def find_separator(self, u, v, candidates, max_cond=3):
        """First separating subset of the candidate pool, scanning cardinality
        0..min(max_cond, |candidates|) in ascending-id lexicographic order.
        max_cond=None lifts the cap. Subsets the test cannot decide (unreliable,
        singular, too few samples) are skipped: independence needs affirmative
        evidence. Returns a frozenset, or None when nothing separates."""
        cands = self._checked_candidates(u, v, candidates)
        limit = len(cands) if max_cond is None else min(max_cond, len(cands))
        for size in range(limit + 1):
            for sub in itertools.combinations(cands, size):
                try:
                    verdict = self.query(u, v, sub)
                except (UnreliableTestError, SingularConditioningError,
                        InsufficientSamplesError):
                    continue
                if verdict.independent:
                    return frozenset(sub)
        return None

    def separable(self, u, v, candidates, max_cond=3) -> bool:
        """Whether some subset of the candidates (within the cap) separates."""
        return self.find_separator(u, v, candidates, max_cond) is not None

    @staticmethod
    def _checked_candidates(u, v, candidates):
        cands = sorted({int(w) for w in candidates})
        if u in cands or v in cands:
            raise CiError("candidate pool must exclude the queried pair")
        return cands


def _checked_ids(n: int, u: int, v: int, z) -> tuple:
    if u == v:
        raise CiError("need two distinct variables")
    zt = tuple(sorted(set(z)))
    for w in (u, v) + zt:
        if not (0 <= w < n):
            raise CiError(f"variable id {w} out of range for n={n}")
    if u in zt or v in zt:
        raise CiError("conditioning set must exclude the queried pair")
    return zt


class PartialCorrelationOracle(CiOracle):
    """Fisher-z test of the partial correlation, from one precomputed
    correlation matrix; suited to the linear continuous model."""

    def __init__(self, data: SampleMatrix, alpha_level: float = 0.05):
        if data.kind != "continuous":
            raise CiError("partial correlation needs continuous samples")
        if not (0 < alpha_level < 1):
            raise CiError(f"alpha must lie in (0, 1), got {alpha_level}")
        self.alpha_level = alpha_level
        self._m = data.m
        self._n = data.n
        sd = data.values.std(axis=0)
        self._constant = (sd <= 0).tolist()
        # nested lists: the per-query arithmetic runs on Python floats
        with np.errstate(invalid="ignore", divide="ignore"):
            self._corr = np.corrcoef(data.values, rowvar=False).tolist()
        self._cache: dict = {}

    def query(self, u, v, z=()) -> CiVerdict:
        zt = _checked_ids(self._n, u, v, z)
        if u > v:
            u, v = v, u
        key = (u, v, zt)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        eff = self._m - len(zt) - 3
        if eff < 1:
            raise InsufficientSamplesError(
                f"m={self._m} cannot support |z|={len(zt)}")
        for w in (u, v) + zt:
            if self._constant[w]:
                raise SingularConditioningError(f"column {w} is constant")
        c = self._corr
        if len(zt) > 2:
            idx = (u, v) + zt
            try:
                prec = np.linalg.inv([[c[i][j] for j in idx] for i in idx])
            except np.linalg.LinAlgError:
                raise SingularConditioningError(
                    "conditioning covariance is singular") from None
            denom = float(prec[0, 0] * prec[1, 1])
            if denom <= 0:
                raise SingularConditioningError("conditioning covariance is singular")
            r = -float(prec[0, 1]) / math.sqrt(denom)
        elif zt:
            r = _closed_partial_corr(c, u, v, zt)
        else:
            r = c[u][v]
        if not math.isfinite(r) or abs(r) > 1 + 1e-6:
            raise SingularConditioningError("partial correlation is not identifiable")
        r = min(max(r, -1 + 1e-15), 1 - 1e-15)
        stat = math.sqrt(eff) * math.atanh(r)
        # exactly the normal survival function, without the distribution-object overhead
        p = float(2 * ndtr(-abs(stat)))
        verdict = CiVerdict(p > self.alpha_level, p)
        self._cache[key] = verdict
        return verdict


def _closed_partial_corr(c, u, v, zt) -> float:
    """Partial correlation of u and v given one or two variables, eliminating
    each conditioning variable in turn from the correlation entries (a Schur
    complement scaled by the pivot, so nothing is divided before the end).
    Raises SingularConditioningError when the conditioning set is collinear
    (a pivot is not positive) or the conditional covariance of u and v is
    singular, the cases in which the matrix inverse breaks down."""
    w = zt[0]
    cu, cv, cw = c[u], c[v], c[w]
    a = cw[w]
    uu = cu[u] * a - cu[w] * cu[w]
    vv = cv[v] * a - cv[w] * cv[w]
    uv = cu[v] * a - cu[w] * cv[w]
    if len(zt) == 2:
        x = zt[1]
        xx = c[x][x] * a - cw[x] * cw[x]
        if xx <= 0:
            raise SingularConditioningError("conditioning covariance is singular")
        ux = cu[x] * a - cu[w] * cw[x]
        vx = cv[x] * a - cv[w] * cw[x]
        uu, vv, uv = uu * xx - ux * ux, vv * xx - vx * vx, uv * xx - ux * vx
    denom = uu * vv
    if denom <= uv * uv:
        raise SingularConditioningError("conditioning covariance is singular")
    return uv / math.sqrt(denom)


class GSquaredOracle(CiOracle):
    """Log-likelihood-ratio independence test on stratified contingency
    tables, for discrete samples with a shared state count."""

    def __init__(self, data: SampleMatrix, alpha_level: float = 0.05):
        if data.kind != "discrete":
            raise CiError("G-squared needs discrete samples")
        if not (0 < alpha_level < 1):
            raise CiError(f"alpha must lie in (0, 1), got {alpha_level}")
        self.alpha_level = alpha_level
        self._vals = data.values
        self._m = data.m
        self._n = data.n
        self._k = int(data.num_states)
        self._cache: dict = {}

    def query(self, u, v, z=()) -> CiVerdict:
        zt = _checked_ids(self._n, u, v, z)
        if u > v:
            u, v = v, u
        key = (u, v, zt)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        k = self._k
        nominal_dof = (k - 1) ** 2 * k ** len(zt)
        if self._m < 10 * nominal_dof:
            raise UnreliableTestError(
                f"m={self._m} below 10*dof={10 * nominal_dof} for |z|={len(zt)}")
        code = self._vals[:, v] + k * self._vals[:, u]
        base = k * k
        for w in zt:
            code = code + base * self._vals[:, w]
            base *= k
        tables = np.bincount(code, minlength=base).reshape(-1, k, k)
        g2, dof = _g2_from_tables(tables)
        if dof == 0:
            verdict = CiVerdict(True, 1.0)
        else:
            p = float(chdtrc(dof, max(g2, 0.0)))
            verdict = CiVerdict(p > self.alpha_level, p)
        self._cache[key] = verdict
        return verdict


def _g2_from_tables(tables) -> tuple:
    """G2 and degrees of freedom over stacked (stratum, k, k) count tables.
    Empty strata contribute nothing; zero row or column marginals shrink the
    dof; cells with zero counts contribute zero to the statistic."""
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


def g2_p_value(a, b, num_states: int) -> float:
    """Marginal G2 independence p-value for two coded integer columns; a
    degenerate table (dof 0) carries no evidence against independence."""
    k = int(num_states)
    table = np.bincount(np.asarray(b) + k * np.asarray(a), minlength=k * k).reshape(1, k, k)
    g2, dof = _g2_from_tables(table)
    if dof == 0:
        return 1.0
    return float(chdtrc(dof, g2))


class ExactCiOracle(CiOracle):
    """d-separation on a known graph. Subset-separability collapses to one
    query: some Z within a pool R separates u and v exactly when the pool's
    restriction to ancestors of {u, v} does, so the ancestor part is all the
    search ever needs to touch."""

    def __init__(self, g: Dag, alpha_level: float = 0.05):
        self.alpha_level = alpha_level
        self.graph = g

    def query(self, u, v, z=()) -> CiVerdict:
        zt = _checked_ids(self.graph.n, u, v, z)
        sep = self.graph.d_separated(u, v, zt)
        return CiVerdict(sep, 1.0 if sep else 0.0)

    def _ancestor_pool(self, u, v, candidates):
        """The candidates that are ancestors of u or v, as a bitset built in
        one pass; ids are checked one by one only once the pass meets a bad
        one, so bad input raises what the checked scan raises."""
        g = self.graph
        n = g.n
        pool_bits = 0
        for w in candidates:
            w = int(w)
            if not 0 <= w < n:
                self._checked_candidates(u, v, candidates)
                for x in (u, v, w):
                    g._check_id(x)
            pool_bits |= 1 << w
        if (0 <= u < n and (pool_bits >> u) & 1) or (0 <= v < n and (pool_bits >> v) & 1):
            raise CiError("candidate pool must exclude the queried pair")
        g._check_id(u)
        g._check_id(v)
        anc = g._ancestor_bits()
        return pool_bits & (anc[u] | anc[v])

    def separable(self, u, v, candidates, max_cond=3) -> bool:
        u, v = int(u), int(v)
        if u == v:
            raise CiError("need two distinct variables")
        zstar = self._ancestor_pool(u, v, candidates)
        size = zstar.bit_count()
        if max_cond is None or size <= max_cond:
            return self.graph._d_separated_bits(u, v, zstar)
        return self.find_separator(u, v, candidates, max_cond) is not None

    def find_separator(self, u, v, candidates, max_cond=3):
        # any separating subset shrinks to its ancestor part without getting
        # bigger or later in the scan order, so the first hit lives in the pool
        u, v = int(u), int(v)
        if u == v:
            raise CiError("need two distinct variables")
        zstar = self._ancestor_pool(u, v, candidates)
        # nothing in the pool separates unless its whole ancestor part does
        if not self.graph._d_separated_bits(u, v, zstar):
            return None
        pool = []
        while zstar:
            pool.append((zstar & -zstar).bit_length() - 1)
            zstar &= zstar - 1
        limit = len(pool) if max_cond is None else min(max_cond, len(pool))
        for size in range(limit + 1):
            for sub in itertools.combinations(pool, size):
                if self.graph.d_separated(u, v, sub):
                    return frozenset(sub)
        return None

