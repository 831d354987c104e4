"""Basic causal solvers: the pluggable component the recursive framework
calls on small variable subsets. Each returns an EdgeSet whose significance
scores share one scale per run: higher means more trusted.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .citest import PIVOT_TOL, G2Kernel, chi2_sf
from .graph import Dag, bit_ids, check_count, check_id, is_real, pair_ids
from .synth import SampleMatrix


class SolverError(ValueError):
    """Invalid solver input."""


class RankDeficientError(SolverError):
    """Regression design has no unique least-squares solution."""


# Level of the leaf solvers' own tests, whatever level the run's CI oracle uses.
LEAF_ALPHA = 0.05


class Edge(NamedTuple):
    parent: int
    child: int
    significance: float


def _edge_ids(parent, child) -> tuple:
    """(parent, child) as ints, once both are counts of at least 0; a
    float, even a whole one, or a bool raises SolverError, not truncated."""
    if not (type(parent) is int and type(child) is int and parent >= 0 and child >= 0):
        parent = check_count(parent, 0, "variable id", SolverError)
        child = check_count(child, 0, "variable id", SolverError)
    return parent, child


class EdgeSet:
    """Directed edges keyed by ordered pair of ids, each a count of at least 0; a
    duplicate insertion keeps the larger significance, so EdgeSet([*a, *b])
    is the union of a and b."""

    __slots__ = ("_sig",)

    def __init__(self, edges=()):
        self._sig = {}
        for parent, child, sig in edges:
            self.add(parent, child, sig)

    def add(self, parent: int, child: int, significance: float) -> None:
        parent, child = _edge_ids(parent, child)
        if parent == child:
            raise SolverError(f"self loop at {parent}")
        if not (is_real(significance) and significance >= 0):
            raise SolverError(f"significance must be a finite real number >= 0, "
                              f"got {significance!r}")
        sig = float(significance)
        key = (parent, child)
        old = self._sig.get(key)
        if old is None or sig > old:
            self._sig[key] = sig

    def _items(self):
        """((parent, child), significance) for each edge, in no set order."""
        return self._sig.items()

    @classmethod
    def _trusted(cls, items) -> EdgeSet:
        """The EdgeSet of ((parent, child), significance) items of distinct
        pairs that all came from EdgeSets, without checking them again."""
        out = cls()
        out._sig = dict(items)
        return out

    @classmethod
    def _union(cls, a: EdgeSet, b: EdgeSet) -> EdgeSet:
        """EdgeSet([*a, *b]), where a shared pair keeps the larger
        significance, without checking a's and b's edges again."""
        out = cls._trusted(a._sig)
        for pair, sig in b._sig.items():
            if sig > out._sig.get(pair, -1.0):
                out._sig[pair] = sig
        return out

    def significance(self, parent: int, child: int) -> float:
        return self._sig[_edge_ids(parent, child)]

    def pairs(self) -> frozenset:
        return frozenset(self._sig)

    def __contains__(self, pair) -> bool:
        return _edge_ids(*pair) in self._sig

    def __len__(self) -> int:
        return len(self._sig)

    def __iter__(self):
        for (u, v) in sorted(self._sig):
            yield Edge(u, v, self._sig[(u, v)])

    def __eq__(self, other):
        return isinstance(other, EdgeSet) and self._sig == other._sig

    def __repr__(self):
        return f"EdgeSet({[tuple(e) for e in self]})"


def _checked_vars(n: int, variables) -> list:
    """The distinct ids in ascending order, once every one is a variable id
    of 0..n-1."""
    return sorted({check_id(v, n, SolverError) for v in variables})


# Candidates of one pick are scored a block at a time. Each of the three
# stacked (m, block, k) temporaries holds about this many floats, though a
# block never takes fewer than two candidates: that spreads numpy's per-call
# cost over several candidates, while the temporaries stay in cache and peak
# memory stays near the one-candidate loop's.
_SCORE_BLOCK_FLOATS = 1 << 14


def _abs_corr(x: np.ndarray, cols: np.ndarray, prod: np.ndarray) -> np.ndarray:
    """|Correlation| of each row x[b] with each column cols[:, b, j];
    degenerate columns give 0. Centres cols in place and uses prod, shaped
    like cols, as scratch. The sample means run along contiguous rows of x
    and down the leading axis of cols, so every entry carries the same bits
    as the one-vector, one-matrix form."""
    m, b, k = cols.shape
    flat, flat_prod = cols.reshape(m, b * k), prod.reshape(m, b * k)
    xc = x - x.mean(axis=1, keepdims=True)
    flat -= flat.mean(axis=0)
    sx = np.sqrt((xc * xc).mean(axis=1))
    np.multiply(flat, flat, out=flat_prod)
    sc = np.sqrt(flat_prod.mean(axis=0)).reshape(b, k)
    np.multiply(xc.T[:, :, None], cols, out=prod)
    num = flat_prod.mean(axis=0).reshape(b, k)
    denom = sx[:, None] * sc
    out = np.zeros_like(num)
    np.divide(num, denom, out=out, where=denom > 1e-12)
    return np.abs(out, out=out)


def _pick_scores(work: np.ndarray, bufs: np.ndarray) -> np.ndarray:
    """The dependence left between each candidate column and the other
    columns' residuals once they are regressed on it; lower means more
    exogenous. Each candidate's coefficients come from its own matrix-vector
    product, as a single matrix product would round differently. bufs, the
    three stacked temporaries, comes from `_score_bufs` for at least work's
    column count."""
    m, k = work.shape
    block = min(k, max(2, _SCORE_BLOCK_FLOATS // (m * k)))
    scores = np.empty(k)
    for lo in range(0, k, block):
        hi = min(lo + block, k)
        resid, th, prod = bufs[:, :m * (hi - lo) * k].reshape(3, m, hi - lo, k)
        xs = work[:, lo:hi].T.copy()
        beta = np.stack([work.T @ work[:, i] for i in range(lo, hi)]) / m
        np.multiply(work[:, lo:hi, None], beta, out=resid)
        np.subtract(work[:, None, :], resid, out=resid)
        # candidate b's own column, (b, lo + b), sits every k + 1 flat columns
        resid.reshape(m, -1)[:, lo::k + 1] = 0.0
        c1 = _abs_corr(xs, np.tanh(resid, out=th), prod)
        c2 = _abs_corr(np.tanh(xs), resid, prod)
        scores[lo:hi] = c1.sum(axis=1) + c2.sum(axis=1)
    return scores


def _score_bufs(m: int, k: int) -> np.ndarray:
    """Scratch for every `_pick_scores` over m rows and at most k columns:
    a block's temporary holds its candidates' m * k floats each, and so at
    most all k candidates, or _SCORE_BLOCK_FLOATS floats, or two candidates
    when even that overruns it."""
    return np.empty((3, min(m * k * k, max(_SCORE_BLOCK_FLOATS, 2 * m * k))))


def _exogeneity_order(x: np.ndarray) -> list:
    """Repeatedly take the variable whose removal leaves the least dependence
    between itself and the other variables' regression residuals (the first
    one on a tie), deflating the rest onto it after each pick."""
    m, k = x.shape
    work = (x - x.mean(axis=0)) / x.std(axis=0)
    # one allocation for every pick: scratch this size churns the heap when
    # it comes and goes with each one
    bufs = _score_bufs(m, k)
    remaining = list(range(k))
    order = []
    while len(remaining) > 1:
        best = int(np.argmin(_pick_scores(work, bufs)))
        order.append(remaining[best])
        xi = work[:, best]
        beta = work.T @ xi / m
        work = work - np.outer(xi, beta)
        work = np.delete(work, best, axis=1)
        sd = work.std(axis=0)
        if np.any(sd <= 1e-12):
            # a deflated column collapsing to a constant pins its order slot
            sd = np.where(sd <= 1e-12, 1.0, sd)
        work = (work - work.mean(axis=0)) / sd
        del remaining[best]
    order.extend(remaining)
    return order


def solve_lingam(data: SampleMatrix, variables) -> EdgeSet:
    """Linear non-Gaussian solver: exogeneity-based causal order, then a
    regression of each variable on all its order predecessors, keeping the
    coefficients whose Wald test rejects zero at LEAF_ALPHA."""
    if data.kind != "continuous":
        raise SolverError("linear solver needs continuous samples")
    vs = _checked_vars(data.n, variables)
    if len(vs) < 2:
        return EdgeSet()
    m = data.m
    if m <= len(vs):
        raise RankDeficientError(f"m={m} too small for {len(vs)} variables")
    if data.constant[vs].any():
        raise SolverError("constant column in continuous data")
    x = data.values[:, vs]
    x = (x - x.mean(axis=0)) / x.std(axis=0)
    order = _exogeneity_order(x)
    result = EdgeSet()
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
        # 1 / d[j] is predecessor j's 1 - R^2 on the others; at or below
        # PIVOT_TOL the design is collinear up to rounding. The threshold is
        # Fisher-z's, but Fisher-z applies it to each elimination pivot
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
                result.add(vs[pred], vs[child], 1.0 - float(p[j]))
    return result


def solve_discrete_anm(data: SampleMatrix, variables) -> EdgeSet:
    """Pairwise additive-noise solver for discrete data with cyclic residuals.

    For each ordered pair, fit f(x) = the conditional mode of y given x and
    test (y - f(x)) mod k against x with G2. A direction is emitted only when
    its residual test accepts at LEAF_ALPHA and the reverse one rejects;
    ambiguity emits nothing, and cycles are left for the merge stage.

    Both directions of a pair come from one joint count table: the (x,
    residual) table is each row of the (x, y) table rotated left by that
    row's mode (the first maximum), and the (y, residual) table is the same
    rotation of the transposed table. The unordered pairs are taken a block
    at a time: one offset bincount counts the block's joint tables, and one
    kernel call scores both directions of every pair in it.
    """
    if data.kind != "discrete":
        raise SolverError("additive-noise solver needs discrete samples")
    vs = _checked_vars(data.n, variables)
    if len(vs) < 2:
        return EdgeSet()
    usable = [v for v in vs if not data.constant[v]]
    if len(usable) < 2:
        return EdgeSet()
    cols = np.ascontiguousarray(data.values[:, usable].T, dtype=np.int64)
    k = data.num_states
    g2 = G2Kernel(k, data.m)
    # indices into the flat (x, y) table: its k rows, then the k rows of the
    # transposed table; rotate[row, mode] is that row rotated left by mode
    cells = np.arange(k * k).reshape(k, k)
    rows = np.concatenate((cells, cells.T))
    shift = np.arange(k)
    rank = np.arange(2 * k)
    rotate = rows[rank[:, None, None], (shift[:, None] + shift) % k]
    # the pairs (a, b), a < b, of positions in usable, in row-major order
    count = len(usable)
    total = count * (count - 1) // 2
    result = EdgeSet()
    for lo in range(0, total, g2.block):
        a, b = pair_ids(np.arange(lo, min(lo + g2.block, total)), count)
        joint = g2.pair_tables(cols, a, b).reshape(len(a), k * k)
        modes = joint[:, rows].argmax(axis=2)
        resid = np.take_along_axis(joint, rotate[rank, modes].reshape(len(a), -1), axis=1)
        p_ab, p_ba = g2.table_p_values(resid.reshape(-1, k, k)).reshape(-1, 2).T
        for t in np.flatnonzero((p_ab > LEAF_ALPHA) & (p_ba <= LEAF_ALPHA)):
            result.add(usable[a[t]], usable[b[t]], float(p_ab[t]))
        for t in np.flatnonzero((p_ba > LEAF_ALPHA) & (p_ab <= LEAF_ALPHA)):
            result.add(usable[b[t]], usable[a[t]], float(p_ba[t]))
    return result


def oracle_solver(g_true: Dag, variables) -> EdgeSet:
    """Ground-truth solver: the edges of g_true induced on the variable set,
    all at significance 1.0, from each member's parent bitset within the
    set."""
    ids = _checked_vars(g_true.n, variables)
    inside = sum(1 << v for v in ids)
    pa = g_true._pa_bits
    return EdgeSet._trusted({(p, v): 1.0 for v in ids for p in bit_ids(pa[v] & inside)})


def make_oracle_solver(g_true: Dag):
    """Bind the truth into the solve(data, vars) shape the framework takes."""

    def solve(data, variables):
        return oracle_solver(g_true, variables)

    return solve
