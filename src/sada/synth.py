"""Synthetic sample generation for a known DAG, plus CSV persistence.

Continuous data follow a linear model with standardized uniform noise; every
column is normalized to mean 0 and variance 1. Discrete data are drawn from
random conditional probability tables with a probability floor.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .graph import Dag


class SynthError(ValueError):
    """Invalid generation parameters or sample data."""


class SampleFormatError(SynthError):
    """Malformed sample CSV; carries the offending 1-based line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class SampleMatrix:
    """Samples in rows, variables in columns."""

    values: np.ndarray
    kind: str  # "continuous" or "discrete"
    num_states: int | None = None

    def __post_init__(self):
        if self.kind not in ("continuous", "discrete"):
            raise SynthError(f"unknown sample kind {self.kind!r}")
        if self.values.ndim != 2:
            raise SynthError("sample matrix must be 2-dimensional")
        if self.kind == "discrete":
            if self.num_states is None or self.num_states < 2:
                raise SynthError("discrete samples need num_states >= 2")
            self._check_states()

    def _check_states(self):
        """Discrete states must be integers in [0, num_states): the count
        tables index by them, so anything else would silently miscount."""
        vals = self.values
        if not np.issubdtype(vals.dtype, np.integer):
            raise SynthError(f"discrete states must be integers, but column 0 "
                             f"(like every column) has dtype {vals.dtype}")
        if vals.size == 0:
            return
        lo, hi = vals.min(axis=0), vals.max(axis=0)
        bad = np.flatnonzero((lo < 0) | (hi >= self.num_states))
        if bad.size:
            col = int(bad[0])
            state = int(lo[col] if lo[col] < 0 else hi[col])
            raise SynthError(f"column {col} holds state {state}, outside "
                             f"[0, {self.num_states}) for num_states={self.num_states}")

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
    if m < 2:
        raise SynthError(f"need at least two samples to normalize, got m={m}")
    if not (0 < noise_weight <= 1):
        raise SynthError(f"noise weight must lie in (0, 1], got {noise_weight}")
    rng = np.random.default_rng(seed)
    data = np.empty((m, g.n))
    for v in g.topological_order():
        col = noise_weight * _standardize(rng.random(m))
        for p in g.parents(v):
            col = col + data[:, p]
        data[:, v] = _standardize(col)
    return SampleMatrix(data, "continuous")


def draw_random_cpts(g: Dag, num_states: int, rng, floor: float = 0.05) -> dict:
    """One table per variable: rows indexed by the parent configuration
    (ascending parent ids, first parent is the least significant digit),
    each row uniform on the simplex then pushed away from zero by the floor."""
    if num_states < 2:
        raise SynthError(f"need at least two states, got {num_states}")
    if floor * num_states >= 1:
        raise SynthError(f"floor {floor} leaves no mass for {num_states} states")
    cpts = {}
    for v in range(g.n):
        rows = num_states ** len(g.parents(v))
        raw = rng.dirichlet(np.ones(num_states), size=rows)
        cpts[v] = floor + (1 - floor * num_states) * raw
    return cpts


def sample_from_cpts(g: Dag, cpts: dict, num_states: int, m: int, rng) -> SampleMatrix:
    """Ancestral sampling: resolve each variable's parent configuration row,
    then invert the row's CDF against one uniform draw per sample."""
    if m < 1:
        raise SynthError(f"need at least one sample, got m={m}")
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


def load_samples(path, num_states: int | None = None) -> SampleMatrix:
    """Read a sample CSV; a table whose cells are all integers is discrete
    (num_states defaults to max value + 1), anything else is continuous.
    Non-numeric and non-finite (nan, inf) cells raise SampleFormatError."""
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
            rows.append(parsed)
    if not rows:
        raise SampleFormatError("no sample rows", 2)
    values = np.asarray(rows, dtype=float)
    if all_int and np.all(values >= 0):
        ints = values.astype(np.int64)
        k = num_states if num_states is not None else int(ints.max()) + 1
        return SampleMatrix(ints, "discrete", num_states=max(k, 2))
    return SampleMatrix(values, "continuous")
