"""Chaotic scalar source and the uniform-series carrier.

The logistic map at r = 3.91 supplies the scalar orbit that drives every
construction in this package.  ``Series`` carries every signal: the orbit is
a one-column sequence on integer indices, and a function is sampled on a time
grid.  Filtering the orbit's piecewise-constant interpolant through a
decaying exponential yields a bounded, uniformly continuous scalar function.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, GridMismatchError, WindowExhaustedError

LOGISTIC_R = 3.91
DEFAULT_SEED = 0.41
DEFAULT_BURN_IN = 1000
WARMUP_UNITS = 20
ORACLE_NODES = 16  # Gauss-Legendre nodes on each unit piece of the quadrature oracle
ORACLE_DEPTH = 40.0  # time units of the past the quadrature oracle integrates over
# Rows per pass of the loops over whole series here, so that their scratch arrays
# stay this short however long the series
ROW_CHUNK = 1 << 15


def row_norms(arr, origin=None) -> np.ndarray:
    """Euclidean norm of each row of ``arr``, or of ``arr - origin`` for an ``origin`` row.

    Bit-identical to ``np.linalg.norm(arr - origin, axis=-1)``: below 8 columns numpy
    sums a row's squares left to right, as this column-at-a-time sum does, without
    numpy's per-row reduction (4x slower on (10^6, 2)) or an (n, d) difference; its
    one scratch column is ``ROW_CHUNK`` rows long.
    Float64 2-D input of 8 or more columns, input with a NaN row, and any other input,
    goes to numpy.
    """
    arr = np.asarray(arr)
    if arr.ndim == 2 and arr.dtype == np.float64 and 0 < arr.shape[1] < 8:
        def square(k, lo, out):
            x = arr[lo:lo + out.size, k]
            if origin is not None:
                x = np.subtract(x, origin[k], out=out)
            return np.multiply(x, x, out=out)

        out = np.empty(arr.shape[0])
        col = np.empty(min(out.size, ROW_CHUNK))
        for lo in range(0, out.size, ROW_CHUNK):
            part = square(0, lo, out[lo:lo + ROW_CHUNK])
            for k in range(1, arr.shape[1]):
                part += square(k, lo, col[:part.size])
        # Which NaN's sign and payload an add keeps depends on numpy's loop (vector or
        # scalar, in place or not), so an array with a NaN row takes numpy's own norm.
        if not np.isnan(out.sum()):
            return np.sqrt(out, out=out)
    return np.linalg.norm(arr if origin is None else arr - origin, axis=-1)


def logistic_step(x: float, r: float = LOGISTIC_R) -> float:
    """One step of the logistic map x -> r*x*(1-x) on [0, 1]."""
    if not (0.0 <= x <= 1.0) or not math.isfinite(x):
        raise DomainError(f"logistic state must lie in [0, 1], got {x!r}")
    if not (0.0 < r <= 4.0):
        raise DomainError(f"logistic parameter must lie in (0, 4], got {r!r}")
    return r * x * (1.0 - x)


def logistic_orbit(seed: float, burn_in: int = DEFAULT_BURN_IN, length: int = 1000) -> Series:
    """Forward logistic orbit: discard ``burn_in`` iterates, record ``length``.

    The orbit is a one-column sequence whose index 0 holds the post-burn-in state.
    Seeds 0 and 1 are rejected since their orbits collapse immediately.
    """
    if not (0.0 < seed < 1.0):
        raise DomainError(f"seed must lie strictly inside (0, 1), got {seed!r}")
    if burn_in < 0:
        raise DomainError("burn_in must be non-negative")
    if length < 1:
        raise DomainError("length must be at least 1")
    x, r = float(seed), LOGISTIC_R  # a local: a global lookup per step slows the loop
    for _ in range(int(burn_in)):
        x = r * x * (1.0 - x)

    def blocks(x):
        for _ in range(int(length) // 16):
            yield (x, a := r * x * (1.0 - x), b := r * a * (1.0 - a), c := r * b * (1.0 - b),
                   d := r * c * (1.0 - c), e := r * d * (1.0 - d), f := r * e * (1.0 - e),
                   g := r * f * (1.0 - f), h := r * g * (1.0 - g), i := r * h * (1.0 - h),
                   j := r * i * (1.0 - i), k := r * j * (1.0 - j), m := r * k * (1.0 - k),
                   n := r * m * (1.0 - m), p := r * n * (1.0 - n), q := r * p * (1.0 - p))
            x = r * q * (1.0 - q)
        tail = []
        for _ in range(int(length) % 16):
            tail.append(x)
            x = r * x * (1.0 - x)
        yield tail
    # np.fromiter reads one 16-iterate tuple a generator pass: 6% less CPU time than four
    # iterates a pass (0.94, median ratio), which took 10^6 iterates in 0.10 s against
    # 0.13 s at one a pass; the resume, not the arithmetic, was the cost per value
    return VectorSequence(0, np.fromiter(itertools.chain.from_iterable(blocks(x)), float,
                                         int(length)))


def logistic_residual(orbit: Series) -> float:
    """Largest |x_{k+1} - r*x_k*(1 - x_k)| of an orbit's pairs (0.0: none), r = ``LOGISTIC_R``."""
    now, after = orbit.values[:-1, 0], orbit.values[1:, 0]
    worst = 0.0
    for lo in range(0, now.size, ROW_CHUNK):
        x = now[lo:lo + ROW_CHUNK]
        worst = max(worst, float(np.abs(after[lo:lo + x.size] - LOGISTIC_R * x * (1.0 - x)).max()))
    return worst


@dataclass(frozen=True)
class Series:
    """Vectors on a uniform axis: ``values[k]`` sits at position ``t_start + k*step``.

    The axis type decides the setting.  An integer axis (an ``int`` ``t_start``
    and step ``1``) is a sequence on integer indices; a float axis is a
    function sampled on a time grid.  ``is_sequence`` is ``isinstance(step, int)``,
    and on a sequence every position (``t_end``, ``times()``, ``restrict``)
    stays an exact Python int.  Build one with ``GridFunction`` or
    ``VectorSequence``, which fix the axis type.
    """

    t_start: float
    step: float
    values: np.ndarray

    def __post_init__(self):
        if not (self.step > 0.0) or not math.isfinite(self.step):
            raise DomainError(f"axis step must be positive, got {self.step!r}")
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[0] == 0:
            raise DomainError("values must form a nonempty (n, m) array")
        # min and max carry a NaN through, and need no temporary of the array's size
        if arr.size and not (math.isfinite(arr.min()) and math.isfinite(arr.max())):
            raise DomainError("values must all be finite")
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def is_sequence(self) -> bool:
        return isinstance(self.step, int)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def t_end(self) -> float:
        """Position of the last value."""
        return self.t_start + (len(self) - 1) * self.step

    def times(self) -> np.ndarray:
        return self.t_start + self.step * np.arange(len(self))

    def norms(self) -> np.ndarray:
        """Euclidean norm of every value, bit-identical to ``np.linalg.norm(values, axis=1)``."""
        return row_norms(self.values)

    def sup_norm(self) -> float:
        return float(self.norms().max())

    def index_at(self, t: float) -> int:
        j = round((t - self.t_start) / self.step)
        if abs(self.t_start + j * self.step - t) > 1e-6 * self.step:
            raise DomainError(f"position {t!r} is not on the axis of this series")
        if not 0 <= j < len(self):
            raise WindowExhaustedError(
                f"position {t!r} outside the recorded window [{self.t_start}, {self.t_end}]")
        return int(j)

    def value_at(self, t: float) -> np.ndarray:
        return self.values[self.index_at(t)]

    def restrict(self, t0: float, t1: float) -> "Series":
        """Restriction to [t0, t1]; both endpoints must be positions of the axis."""
        i0, i1 = self.index_at(t0), self.index_at(t1)
        if i1 < i0:
            raise DomainError("empty restriction window")
        return replace(self, t_start=self.t_start + i0 * self.step, values=self.values[i0:i1 + 1])

    def same_axis(self, other: "Series") -> bool:
        """One axis kind, length and step, and one start: exactly on integer axes."""
        slack = 0 if self.is_sequence else 1e-9 * max(1.0, abs(self.t_start))
        return (self.is_sequence == other.is_sequence and len(self) == len(other)
                and abs(self.t_start - other.t_start) <= slack
                and abs(self.step - other.step) <= 1e-12 * self.step)

    def require_same_axis(self, other: "Series") -> None:
        if not self.same_axis(other):
            raise GridMismatchError("series do not share one axis")


def GridFunction(t_start: float, step: float, samples) -> Series:
    """Function sampled on the time grid ``t_start + k*step``."""
    return Series(float(t_start), float(step), samples)


def VectorSequence(base_index: int, values) -> Series:
    """Sequence of vectors at the integer indices ``base_index + k``."""
    return Series(int(base_index), 1, values)


def settling_positions(norms: np.ndarray, levels) -> list:
    """Per level, the first position past which ``norms`` stays below it (None if none).

    Overwrites ``norms`` in place with its running sup taken from the end, so
    no copy is made; the caller may read that profile afterwards.
    """
    np.maximum.accumulate(norms[::-1], out=norms[::-1])
    positions = []
    for level in levels:
        below = norms < level   # a suffix of the positions, since ``norms`` never increases
        k = int(np.argmax(below))
        positions.append(k if below[k] else None)
    return positions


@dataclass(frozen=True)
class ExponentialFilter:
    """Exact evaluator of the exponentially filtered step interpolant of a scalar orbit.

    With decay a and node values h_i, the filtered signal obeys
    h(i + u) = exp(-a*u)*h_i + (kappa_i/a)*(1 - exp(-a*u)) on each unit
    interval, which this class evaluates in closed form.  The left edge is
    initialised at the steady value kappa_0/a; after ``WARMUP_UNITS`` units
    the influence of that choice is below 1e-17.
    """

    orbit: Series
    decay: float
    node_values: np.ndarray

    @classmethod
    def from_orbit(cls, orbit: Series, decay: float = 2.0) -> "ExponentialFilter":
        if not decay > 0.0:
            raise DomainError("decay rate must be positive")
        kappa = orbit.values[:, 0]
        n = kappa.size
        nodes = np.empty(n + 1)
        nodes[0] = kappa[0] / decay
        fade = math.exp(-decay)
        gain = (1.0 - fade) / decay
        acc = nodes[0]
        for i in range(n):
            acc = fade * acc + gain * kappa[i]
            nodes[i + 1] = acc
        return cls(orbit, float(decay), nodes)

    @property
    def t_start(self) -> float:
        return float(self.orbit.t_start)

    @property
    def t_end(self) -> float:
        return float(self.orbit.t_start + len(self.orbit))

    def eval(self, t) -> np.ndarray:
        """Closed-form values at arbitrary times inside the orbit window."""
        t = np.asarray(t, dtype=float)
        rel = t - self.t_start
        n = len(self.orbit)
        if np.any(rel < -1e-9) or np.any(rel > n + 1e-9):
            raise DomainError("evaluation time outside the filtered window")
        i = np.clip(np.floor(rel).astype(int), 0, n - 1)
        u = rel - i
        damp = np.exp(-self.decay * u)
        kappa = self.orbit.values[:, 0]
        return damp * self.node_values[i] + (kappa[i] / self.decay) * (1.0 - damp)


def convolve_exponential(orbit: Series, decay: float = 2.0, step: float = 0.05) -> Series:
    """Filter the orbit's step interpolant through exp(-decay*t) on a grid.

    Returns the scalar grid function on [t0 + WARMUP_UNITS, t0 + n] for an orbit of
    n iterates from index t0; the warm-up prefix absorbs the steady-state
    initialisation of the infinite past.
    ``step`` must divide the unit interval exactly.
    """
    per_unit = round(1.0 / step)
    if per_unit < 1 or abs(per_unit * step - 1.0) > 1e-9:
        raise DomainError(f"step {step!r} does not divide the unit interval")
    n = len(orbit)
    if n <= WARMUP_UNITS:
        raise DomainError(f"orbit spans {n} units, shorter than the {WARMUP_UNITS}-unit warm-up")
    filt = ExponentialFilter.from_orbit(orbit, decay)
    t0 = orbit.t_start + WARMUP_UNITS
    count = (n - WARMUP_UNITS) * per_unit + 1
    times = t0 + step * np.arange(count)
    return GridFunction(float(t0), float(step), filt.eval(times))


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    from numpy.polynomial.legendre import leggauss  # not at module level: few commands need it

    return leggauss(ORACLE_NODES)


def quadrature_oracle(filt: ExponentialFilter, t: float) -> float:
    """Independent evaluation of the filtering integral by Gauss-Legendre quadrature.

    Integrates exp(-decay*(t-s)) * mu(s) over [t - ORACLE_DEPTH, t] piece by piece
    between the unit breaks of the step interpolant mu, with ``ORACLE_NODES``
    nodes on each piece, reading mu's level on a piece at its left end; the
    omitted tail is exponentially small.  Used as the cross-check for the
    closed-form recurrence, never as its replacement.
    """
    lo = t - ORACLE_DEPTH
    if lo < filt.t_start - 1e-9 or t > filt.t_end + 1e-9:
        raise DomainError("oracle window leaves the recorded orbit")
    top = filt.t_end - 1e-9
    levels, base = filt.orbit.values[:, 0], filt.orbit.t_start
    ends = np.array([lo] + [float(b) for b in range(math.ceil(lo), math.floor(t) + 1)
                            if lo < b < t] + [t])
    k = np.floor(np.minimum(ends[:-1], top)).astype(int) - base
    if k.min() < 0 or k.max() >= levels.size:
        raise DomainError("evaluation time outside the recorded window")
    nodes, weights = _gauss_legendre()
    mid, half = 0.5 * (ends[1:] + ends[:-1]), 0.5 * (ends[1:] - ends[:-1])
    s = mid[:, None] + half[:, None] * nodes
    pieces = np.exp(-filt.decay * (t - s)) @ weights
    return float((half * levels[k]) @ pieces)

