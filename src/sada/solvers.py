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
    return (check_count(parent, 0, "variable id", SolverError),
            check_count(child, 0, "variable id", SolverError))


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
        if sig > self._sig.get((parent, child), -1.0):
            self._sig[parent, child] = sig

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


# Candidates of one pick are scored a block of at least two at a time, in two
# stacked (m, 2 * block, k) temporaries of about twice this many floats each:
# that spreads numpy's per-call cost over several candidates, while the
# temporaries stay in cache and peak memory stays near the one-candidate loop's.
_SCORE_BLOCK_FLOATS = 1 << 14


def _centred(a: np.ndarray) -> tuple:
    """a less its column means, and its column standard deviations, by the
    steps and so with the bits of `np.mean` and `np.std`, not their wrappers."""
    dev = a - np.add.reduce(a, axis=0) / len(a)
    return dev, np.sqrt(np.add.reduce(dev * dev, axis=0) / len(a))


def _abs_corr(x: np.ndarray, cols: np.ndarray, prod: np.ndarray) -> np.ndarray:
    """|Correlation| of each row x[b] with each column cols[:, b, j];
    degenerate columns give 0. Centres cols in place and uses prod, shaped
    like cols, as scratch. The sample means run along contiguous rows of x
    and down the leading axis of cols, so every entry carries the same bits
    as the one-vector, one-matrix form."""
    m, b, k = cols.shape
    flat, flat_prod = cols.reshape(m, b * k), prod.reshape(m, b * k)
    xc = x - np.add.reduce(x, axis=1, keepdims=True) / m
    flat -= np.add.reduce(flat, axis=0) / m
    sx = np.sqrt(np.add.reduce(xc * xc, axis=1) / m)
    np.multiply(flat, flat, out=flat_prod)
    sc = np.sqrt(np.add.reduce(flat_prod, axis=0) / m).reshape(b, k)
    np.multiply(xc.T[:, :, None], cols, out=prod)
    num = (np.add.reduce(flat_prod, axis=0) / m).reshape(b, k)
    denom = sx[:, None] * sc
    out = np.zeros_like(num)
    np.divide(num, denom, out=out, where=denom > 1e-12)
    return np.abs(out, out=out)


def _pick_scores(work: np.ndarray, bufs: np.ndarray) -> np.ndarray:
    """The dependence left between each candidate column and the other
    columns' residuals once they are regressed on it; lower means more
    exogenous. Each candidate's coefficients come from its own matrix-vector
    product, as a single matrix product would round differently. One
    `_abs_corr` scores a block: its candidates against the tanh of their
    residuals, then their tanh against the residuals, in the two stacked
    temporaries bufs that `_score_bufs` gives for work's shape or wider."""
    m, k = work.shape
    block = min(k, max(2, _SCORE_BLOCK_FLOATS // (m * k)))
    scores = np.empty(k)
    beta = np.empty((block, k))
    for lo in range(0, k, block):
        b = min(block, k - lo)
        cols, prod = bufs[:, :2 * m * b * k].reshape(2, m, 2 * b, k)
        xs = np.empty((2 * b, m))
        xs[:b] = work[:, lo:lo + b].T
        np.tanh(xs[:b], out=xs[b:])
        for j in range(b):
            np.matmul(work.T, work[:, lo + j], out=beta[j])
        resid = cols[:, b:]
        np.multiply(work[:, lo:lo + b, None], beta[:b] / m, out=resid)
        np.subtract(work[:, None, :], resid, out=resid)
        # candidate j's own residual, (b + j, lo + j), is every k + 1th from b * k + lo
        cols.reshape(m, -1)[:, b * k + lo::k + 1] = 0.0
        np.tanh(resid, out=cols[:, :b])
        total = np.add.reduce(_abs_corr(xs, cols, prod), axis=1)
        scores[lo:lo + b] = total[:b] + total[b:]
    return scores


def _score_bufs(m: int, k: int) -> np.ndarray:
    """Scratch for every `_pick_scores` over m rows and at most k columns:
    each temporary holds two m * k floats per candidate of a block, of at
    most all k, or _SCORE_BLOCK_FLOATS // (m * k), or else two candidates."""
    return np.empty((2, 2 * min(m * k * k, max(_SCORE_BLOCK_FLOATS, 2 * m * k))))


def _exogeneity_order(x: np.ndarray) -> list:
    """Repeatedly take the variable whose removal leaves the least dependence
    between itself and the other variables' regression residuals (the first
    one on a tie), deflating the rest onto it after each pick."""
    m, k = x.shape
    work = np.divide(*_centred(x))
    # one allocation for every pick: scratch this size churns the heap otherwise
    bufs = _score_bufs(m, k)
    remaining = list(range(k))
    order = []
    while len(remaining) > 1:
        best = int(np.argmin(_pick_scores(work, bufs)))
        order.append(remaining.pop(best))
        xi = work[:, best]
        work = work - np.outer(xi, work.T @ xi / m)
        dev, sd = _centred(np.delete(work, best, axis=1))
        # a deflated column collapsing to a constant pins its order slot
        sd[sd <= 1e-12] = 1.0
        work = dev / sd
    return order + remaining


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
    x = np.divide(*_centred(data.values[:, vs]))
    order = _exogeneity_order(x)
    result = EdgeSet()
    for step in range(1, len(order)):
        child, preds = order[step], order[:step]
        design, y = x[:, preds], x[:, child]
        gram = design.T @ design
        try:
            gram_inv = np.linalg.inv(gram)
        except np.linalg.LinAlgError:
            raise RankDeficientError("collinear predecessors in regression") from None
        # 1 / d[j] is predecessor j's 1 - R^2 on the others; at or below
        # PIVOT_TOL the design is collinear up to rounding. The threshold is
        # Fisher-z's, but Fisher-z applies it to each elimination pivot
        d = gram_inv.diagonal() * gram.diagonal()
        if not (d.min() > 0 and d.max() * PIVOT_TOL < 1):
            raise RankDeficientError("collinear predecessors in regression")
        beta = gram_inv @ design.T @ y
        resid = y - design @ beta
        var = float(resid @ resid) / (m - step) * gram_inv.diagonal()
        # a zero variance (an exact fit) is infinitely significant
        wald = np.full(step, np.inf)
        np.divide(beta * beta, var, out=wald, where=var > 0)
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
