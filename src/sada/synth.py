"""Synthetic sample generation for a known DAG, plus CSV persistence.

Continuous data follow a linear model with standardized uniform noise; every
column is normalized to mean 0 and variance 1. Discrete data are drawn from
random conditional probability tables with a probability floor, CPT_FLOOR.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .graph import Dag, check_count, is_count, is_real


class SynthError(ValueError):
    """Invalid generation parameters or sample data."""


class SampleFormatError(SynthError):
    """Malformed sample CSV; carries the offending 1-based line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True, eq=False)
class SampleMatrix:
    """Samples in rows, at least one, variables in columns. `constant` holds
    one bool per column, True where its maximum equals its minimum: the std
    of a constant column such as 0.1 is rounding noise, not 0. Two matrices
    are equal only when they are the same object."""

    values: np.ndarray
    kind: str  # "continuous" or "discrete"
    num_states: int | None = None
    constant: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in ("continuous", "discrete"):
            raise SynthError(f"unknown sample kind {self.kind!r}")
        if self.values.ndim != 2:
            raise SynthError("sample matrix must be 2-dimensional")
        if not self.m:
            raise SynthError("sample matrix has no sample rows")
        if self.kind == "discrete":
            object.__setattr__(self, "num_states",
                               check_count(self.num_states, 2, "num_states", SynthError))
            lo, hi = self._check_states()
        else:
            # no deviation from the mean exceeds 2 max|x|, so below this
            # bound no sum of m squared deviations overflows; above it a
            # correlation could come out as 0 and read as independence.
            # NaN and inf fail the same test: one NaN would leave every
            # test on its column undecidable
            vals = self.values
            lo, hi = vals.min(axis=0), vals.max(axis=0)
            limit = math.sqrt(np.finfo(float).max / (4 * self.m))
            bad = np.flatnonzero(~(np.maximum(hi, -lo) <= limit))
            if bad.size:
                raise SynthError(f"column {int(bad[0])} holds a non-finite value or one "
                                 f"above {limit:.3g} in magnitude, whose squares over "
                                 f"m={self.m} samples would overflow")
            # the mirror case: below this bound a non-constant column's
            # variance can leave the normal range while its cross terms with
            # another column do not, so a correlation could come out as +-1
            # and read as dependence on every other column
            floor = math.sqrt(self.m * np.finfo(float).tiny)
            spread = np.abs(vals - vals.mean(axis=0)).max(axis=0)
            bad = np.flatnonzero((spread < floor) & (hi != lo))
            if bad.size:
                raise SynthError(f"column {int(bad[0])} deviates from its mean by at most "
                                 f"{spread[bad[0]]:.3g}, below {floor:.3g}, so its variance "
                                 f"over m={self.m} samples would underflow")
        object.__setattr__(self, "constant", lo == hi)

    def _check_states(self) -> tuple:
        """Each column's minimum and maximum, once the discrete states are
        integers in [0, num_states): the count tables index by them, so
        anything else would silently miscount."""
        vals = self.values
        if not np.issubdtype(vals.dtype, np.integer):
            raise SynthError(f"discrete states must be integers, but column 0 "
                             f"(like every column) has dtype {vals.dtype}")
        lo, hi = vals.min(axis=0), vals.max(axis=0)
        bad = np.flatnonzero((lo < 0) | (hi >= self.num_states))
        if bad.size:
            col = int(bad[0])
            state = int(lo[col] if lo[col] < 0 else hi[col])
            raise SynthError(f"column {col} holds state {state}, outside "
                             f"[0, {self.num_states}) for num_states={self.num_states}")
        return lo, hi

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]


def _standardize(x: np.ndarray) -> np.ndarray:
    mu = x.mean()
    sd = x.std()
    if sd <= 0 or not np.isfinite(sd):
        raise SynthError("cannot normalize a constant column")
    return (x - mu) / sd


def generate_linear_nongaussian(g: Dag, m: int, noise_weight: float = 0.3, *, seed) -> SampleMatrix:
    """Each variable is noise_weight times its own standardized uniform noise
    plus the sum of its parents' stored columns, then normalized in place, so
    a root column equals its standardized noise exactly."""
    m = check_count(m, 2, "m", SynthError)
    if not (is_real(noise_weight) and 0 < noise_weight <= 1):
        raise SynthError(f"noise_weight must be a real number in (0, 1], got {noise_weight!r}")
    rng = np.random.default_rng(seed)
    data = np.empty((m, g.n))
    for v in g.topological_order():
        col = noise_weight * _standardize(rng.random(m))
        for p in g.parents(v):
            col = col + data[:, p]
        data[:, v] = _standardize(col)
    return SampleMatrix(data, "continuous")


CPT_FLOOR = 0.05


def cpt_states_ok(num_states) -> bool:
    """An integer of at least two states, and CPT_FLOOR leaves probability
    mass for them."""
    return is_count(num_states, 2) and CPT_FLOOR * num_states < 1


def check_cpt_states(x, error) -> int:
    """x as an int; raise `error` unless `cpt_states_ok(x)`: the one wording
    of the CPT state refusal, so a numpy state count is stored as an int."""
    if not cpt_states_ok(x):
        raise error(f"num_states must be an integer >= 2 that CPT_FLOOR={CPT_FLOOR} "
                    f"leaves mass for, got {x!r}")
    return int(x)


def draw_random_cpts(g: Dag, num_states: int, rng) -> dict:
    """One table per variable: rows indexed by the parent configuration
    (ascending parent ids, first parent is the least significant digit),
    each row uniform on the simplex then pushed away from zero by CPT_FLOOR."""
    num_states = check_cpt_states(num_states, SynthError)
    cpts = {}
    for v in range(g.n):
        rows = num_states ** len(g.parents(v))
        raw = rng.dirichlet(np.ones(num_states), size=rows)
        cpts[v] = CPT_FLOOR + (1 - CPT_FLOOR * num_states) * raw
    return cpts


def sample_from_cpts(g: Dag, cpts: dict, num_states: int, m: int, rng) -> SampleMatrix:
    """Ancestral sampling: resolve each variable's parent configuration row,
    then invert the row's CDF against one uniform draw per sample."""
    m = check_count(m, 1, "m", SynthError)
    num_states = check_count(num_states, 2, "num_states", SynthError)
    data = np.zeros((m, g.n), dtype=np.int64)
    for v in g.topological_order():
        parents = g.parents(v)
        config = np.zeros(m, dtype=np.int64)
        base = 1
        for p in parents:
            config += data[:, p] * base
            base *= num_states
        table = np.asarray(cpts[v], dtype=float)
        if table.shape != (num_states ** len(parents), num_states):
            raise SynthError(f"table for variable {v} has shape {table.shape}")
        cdf = np.cumsum(table[config], axis=1)
        u = rng.random((m, 1))
        data[:, v] = (u > cdf).sum(axis=1)
    return SampleMatrix(data, "discrete", num_states=num_states)


def generate_discrete(g: Dag, m: int, num_states: int = 3, *, seed) -> SampleMatrix:
    rng = np.random.default_rng(seed)
    cpts = draw_random_cpts(g, num_states, rng)
    return sample_from_cpts(g, cpts, num_states, m, rng)


def save_samples(sm: SampleMatrix, path) -> None:
    """CSV with a v0..v{n-1} header; floats keep full round-trip precision."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"v{i}" for i in range(sm.n)])
        if sm.kind == "discrete":
            for row in sm.values:
                writer.writerow([int(x) for x in row])
        else:
            for row in sm.values:
                writer.writerow([repr(float(x)) for x in row])


def load_samples(path) -> SampleMatrix:
    """Read a sample CSV; a table whose cells are all integers is discrete
    (num_states is max value + 1, at least 2), anything else is continuous.
    Non-numeric and non-finite (nan, inf) cells raise SampleFormatError, as
    does a discrete table's state past int64."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SampleFormatError("empty file", 1) from None
        n = len(header)
        if n == 0:
            raise SampleFormatError("empty header", 1)
        rows = []
        all_int = True
        huge = None  # (cell, line) of the first integer past int64
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != n:
                raise SampleFormatError(f"expected {n} cells, got {len(row)}", line_no)
            parsed = []
            for cell in row:
                try:
                    x = float(cell)
                except ValueError:
                    raise SampleFormatError(f"non-numeric cell {cell!r}", line_no) from None
                if not math.isfinite(x):
                    raise SampleFormatError(f"non-finite cell {cell!r}", line_no)
                parsed.append(x)
                if all_int and x != int(x):
                    all_int = False
                elif all_int and huge is None and x >= 2.0 ** 63:
                    huge = (cell, line_no)
            rows.append(parsed)
    if not rows:
        raise SampleFormatError("no sample rows", 2)
    values = np.asarray(rows, dtype=float)
    if all_int and np.all(values >= 0):
        if huge is not None:
            raise SampleFormatError(f"state {huge[0]!r} does not fit in int64", huge[1])
        ints = values.astype(np.int64)
        return SampleMatrix(ints, "discrete", num_states=max(int(ints.max()) + 1, 2))
    return SampleMatrix(values, "continuous")
