"""Closed-form error calculators for the split-and-merge analysis.

Everything here is plain arithmetic over an ErrorModel: the posterior of the
cut-stage error count, its expectation and ceiling bound, expected true/false
edge counts after a merge, the precision-improvement condition, the removal
bounds for the conflict and redundancy passes, and the minimal per-edge
significance advantage that keeps recall intact.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import gammaln


class BoundsError(ValueError):
    pass


class UndefinedModelError(BoundsError):
    """A required field is missing or the formula is undefined there."""


def _prob(name, value):
    if value is None:
        return None
    value = float(value)
    if not (0.0 <= value <= 1.0):
        raise BoundsError(f"{name} must lie in [0, 1], got {value}")
    return value


def _count(name, value, integral=False):
    if value is None:
        return None
    if integral:
        if int(value) != value:
            raise BoundsError(f"{name} must be an integer, got {value}")
        value = int(value)
    else:
        value = float(value)
    if value < 0:
        raise BoundsError(f"{name} must be nonnegative, got {value}")
    return value


@dataclass(frozen=True)
class ErrorModel:
    """Counting model of one partitioned discovery run.

    n: variable count. e, f: directed true-edge and non-edge ordered-pair
    counts, tied by e + f = n^2 - n; e is derived as n*d when only the
    average in-degree d is given, and d as e/n when only e is, but once both
    are set they stay independent (the path-count growth term reads d, the
    error-rate terms read e and f). n1, n2: cut side sizes, n1 + n2 <= n.
    nc: cut-set size. alpha: false-dependence rate, beta: false-independence
    rate, epsilon: solver edge error rate. R, P, r: recall, precision and
    false-edge rate. delta, gamma: significance advantages of true over
    false edges. e1, e2, ec, f1, f2, fc: expected true/false pair counts of
    the two subproblems and their shared part. Fractional values are allowed
    and the counts are taken as given, never rederived from side sizes, so
    callers may base them on overlapping subproblems (|Vi u C|) if they wish.
    """

    n: int
    e: Optional[float] = None
    d: Optional[float] = None
    f: Optional[float] = None
    n1: Optional[int] = None
    n2: Optional[int] = None
    nc: Optional[int] = None
    alpha: float = 0.05
    beta: float = 0.05
    epsilon: float = 0.0
    R: Optional[float] = None
    P: Optional[float] = None
    r: Optional[float] = None
    delta: Optional[float] = None
    gamma: Optional[float] = None
    e1: Optional[float] = None
    e2: Optional[float] = None
    ec: Optional[float] = None
    f1: Optional[float] = None
    f2: Optional[float] = None
    fc: Optional[float] = None

    def __post_init__(self):
        set_ = object.__setattr__
        if int(self.n) != self.n or self.n < 1:
            raise BoundsError(f"n must be a positive integer, got {self.n}")
        set_(self, "n", int(self.n))
        pairs = self.n * self.n - self.n
        e, d, f = self.e, self.d, self.f
        if e is None and d is not None:
            e = self.n * float(d)
        if e is not None:
            e = _count("e", e)
            if e > pairs:
                raise BoundsError(f"e={e} exceeds the {pairs} ordered pairs")
            if d is None:
                d = e / self.n
            if f is None:
                f = pairs - e
            f = _count("f", f)
            if abs(e + f - pairs) > 1e-9:
                raise BoundsError(f"e + f must equal n^2 - n = {pairs}, got {e + f}")
        elif f is not None:
            raise BoundsError("f given without e or d")
        set_(self, "e", e)
        set_(self, "f", f)
        set_(self, "d", None if d is None else _count("d", d))
        set_(self, "n1", _count("n1", self.n1, integral=True))
        set_(self, "n2", _count("n2", self.n2, integral=True))
        set_(self, "nc", _count("nc", self.nc, integral=True))
        if self.n1 is not None and self.n2 is not None and self.n1 + self.n2 > self.n:
            raise BoundsError(f"side sizes n1 + n2 = {self.n1 + self.n2} exceed n = {self.n}")
        if self.nc is not None and self.nc > self.n:
            raise BoundsError(f"nc = {self.nc} exceeds n = {self.n}")
        for name in ("alpha", "beta", "epsilon", "R", "P", "r"):
            set_(self, name, _prob(name, getattr(self, name)))
        for name in ("delta", "gamma"):
            value = getattr(self, name)
            if value is not None:
                value = float(value)
                if value < 0:
                    raise BoundsError(f"{name} must be nonnegative, got {value}")
                set_(self, name, value)
        for name in ("e1", "e2", "ec", "f1", "f2", "fc"):
            set_(self, name, _count(name, getattr(self, name)))


def _need(model: ErrorModel, *names):
    values = [getattr(model, name) for name in names]
    missing = [name for name, value in zip(names, values) if value is None]
    if missing:
        raise UndefinedModelError(f"model is missing {', '.join(missing)}")
    return values


def _pair_odds(model: ErrorModel):
    """Posterior odds of a crossing pair being a missed true edge."""
    e, f, alpha, beta = _need(model, "e", "f", "alpha", "beta")
    if f == 0:
        raise UndefinedModelError("f = 0 leaves the posterior undefined")
    if alpha == 1:
        raise UndefinedModelError("alpha = 1 leaves the posterior undefined")
    return (e * beta) / (f * (1.0 - alpha))


def _log_pmf(total, i, rho):
    """log(C(total, i) * rho^i / (1+rho)^total), for an int or an array i."""
    log_choose = gammaln(total + 1) - gammaln(i + 1) - gammaln(total - i + 1)
    return log_choose + i * math.log(rho) - total * math.log1p(rho)


def cut_error_posterior(model: ErrorModel, i: int) -> float:
    """Probability that an accepted cut severed exactly i true edges.

    The count over the n1*n2 crossing pairs has posterior proportional to
    C(n1*n2, i) * rho^i with rho = e*beta / (f*(1-alpha)); the normalizer is
    (1+rho)^(n1*n2). Evaluated in log space.
    """
    n1, n2 = _need(model, "n1", "n2")
    rho = _pair_odds(model)
    total = n1 * n2
    if int(i) != i or not (0 <= i <= total):
        raise BoundsError(f"i must be an integer in [0, {total}], got {i}")
    i = int(i)
    if rho == 0.0:
        return 1.0 if i == 0 else 0.0
    return float(math.exp(_log_pmf(total, i, rho)))


def expected_cut_error(model: ErrorModel) -> float:
    """Expected number of true edges severed by an accepted cut, by direct
    summation of i * posterior(i)."""
    n1, n2 = _need(model, "n1", "n2")
    rho = _pair_odds(model)
    if rho == 0.0:
        return 0.0
    total = n1 * n2
    i = np.arange(total + 1)
    return float(np.sum(i * np.exp(_log_pmf(total, i, rho))))


def cut_error_bound(model: ErrorModel) -> int:
    """Ceiling bound on the expected cut error: ceil(n^2*e*beta / (4*f*(1-alpha))) + 1."""
    n, e, f, alpha, beta = _need(model, "n", "e", "f", "alpha", "beta")
    if f == 0:
        raise UndefinedModelError("f = 0 leaves the bound undefined")
    if alpha == 1:
        raise UndefinedModelError("alpha = 1 leaves the bound undefined")
    return int(math.ceil((n * n * e * beta) / (4.0 * f * (1.0 - alpha)))) + 1


def merge_counts(model: ErrorModel, e1=None, e2=None, ec=None, f1=None,
                 f2=None, fc=None, R1=None, R2=None, r1=None, r2=None):
    """Expected true and false edge counts after merging two subresults.

    e_m = e1*R1 + e2*R2 + ec*(R1 + R2 - R1*R2), and f_m the same with the
    f counts and false-edge rates. Arguments left as None fall back to the
    model's fields (R and r serving as the shared rates).
    """
    e1 = model.e1 if e1 is None else _count("e1", e1)
    e2 = model.e2 if e2 is None else _count("e2", e2)
    ec = model.ec if ec is None else _count("ec", ec)
    f1 = model.f1 if f1 is None else _count("f1", f1)
    f2 = model.f2 if f2 is None else _count("f2", f2)
    fc = model.fc if fc is None else _count("fc", fc)
    R1 = model.R if R1 is None else _prob("R1", R1)
    R2 = model.R if R2 is None else _prob("R2", R2)
    r1 = model.r if r1 is None else _prob("r1", r1)
    r2 = model.r if r2 is None else _prob("r2", r2)
    missing = [name for name, v in [("e1", e1), ("e2", e2), ("ec", ec),
                                    ("f1", f1), ("f2", f2), ("fc", fc),
                                    ("R1", R1), ("R2", R2), ("r1", r1), ("r2", r2)]
               if v is None]
    if missing:
        raise UndefinedModelError(f"merge counts need {', '.join(missing)}")
    e_m = e1 * R1 + e2 * R2 + ec * (R1 + R2 - R1 * R2)
    f_m = f1 * r1 + f2 * r2 + fc * (r1 + r2 - r1 * r2)
    return e_m, f_m


def merge_delta_threshold(model: ErrorModel) -> float:
    """Significance advantage that makes conflict removal favor true edges:
    P*fc*(r - r^2) / ((1-P)*(e1 + e2 + ec))."""
    P, r, fc, e1, e2, ec = _need(model, "P", "r", "fc", "e1", "e2", "ec")
    if P == 1.0:
        raise UndefinedModelError("P = 1 divides by zero in the delta threshold")
    denom = (1.0 - P) * (e1 + e2 + ec)
    if denom == 0.0:
        raise UndefinedModelError("e1 + e2 + ec = 0 divides by zero in the delta threshold")
    return (P * fc * (r - r * r)) / denom


def merge_gamma_threshold(model: ErrorModel) -> float:
    """Significance advantage that makes redundancy removal favor true
    edges: fc*r / (f1 + f2 + 2*fc)."""
    r, fc, f1, f2 = _need(model, "r", "fc", "f1", "f2")
    denom = f1 + f2 + 2.0 * fc
    if denom == 0.0:
        raise UndefinedModelError("f1 + f2 + 2*fc = 0 divides by zero in the gamma threshold")
    return (fc * r) / denom


def merge_precision_condition(model: ErrorModel) -> bool:
    """True when merging improves precision: delta exceeds its threshold or
    gamma exceeds its threshold. The delta branch is evaluated first."""
    (delta,) = _need(model, "delta")
    if delta > merge_delta_threshold(model):
        return True
    (gamma,) = _need(model, "gamma")
    return gamma > merge_gamma_threshold(model)


def _growth_term(model: ErrorModel) -> float:
    """Shared factor nc*(2*nc*r + d^2/n * (1 + d/n)^(n-2)): expected edges
    incident to the cut set plus the path-count growth contribution."""
    n, d, nc, r = _need(model, "n", "d", "nc", "r")
    return nc * (2.0 * nc * r + (d * d / n) * (1.0 + d / n) ** (n - 2))


def conflict_removed_bound(model: ErrorModel) -> float:
    """Expected true edges lost to conflict removal is at most epsilon times
    the growth term."""
    (epsilon,) = _need(model, "epsilon")
    return epsilon * _growth_term(model)


def redundancy_removed_bound(model: ErrorModel) -> float:
    """Expected true edges lost to redundancy removal is at most beta times
    the growth term."""
    (beta,) = _need(model, "beta")
    return beta * _growth_term(model)


def min_delta_for_recall(model: ErrorModel) -> float:
    """Minimal significance advantage of true edges that keeps every merge
    stage recall-safe: (bound + (epsilon + beta) * growth) / e."""
    e, beta, epsilon = _need(model, "e", "beta", "epsilon")
    if e == 0:
        raise UndefinedModelError("e = 0 divides by zero in the recall condition")
    return (cut_error_bound(model) + (epsilon + beta) * _growth_term(model)) / e


_REPORT_OPS = [
    ("cut_error_bound", cut_error_bound),
    ("expected_cut_error", expected_cut_error),
    ("merge_delta_threshold", merge_delta_threshold),
    ("merge_gamma_threshold", merge_gamma_threshold),
    ("merge_precision_condition", merge_precision_condition),
    ("conflict_removed_bound", conflict_removed_bound),
    ("redundancy_removed_bound", redundancy_removed_bound),
    ("min_delta_for_recall", min_delta_for_recall),
]


def bounds_report(model: ErrorModel) -> dict:
    """Every quantity computable from the model, by name. Expected merge
    counts are included when the partition counts and rates are present."""
    out = {}
    for name, op in _REPORT_OPS:
        try:
            out[name] = op(model)
        except UndefinedModelError:
            pass
    try:
        e_m, f_m = merge_counts(model)
        out["expected_true_edges_after_merge"] = e_m
        out["expected_false_edges_after_merge"] = f_m
    except UndefinedModelError:
        pass
    return out
