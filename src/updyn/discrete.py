"""Quasilinear discrete systems: w_{i+1} = B w_i + g(w_i) + forcing_i.

Contraction requires |B| + L < 1 in the spectral norm.  The module computes
that norm from the SVD, approximates the unique bounded orbit by burn-in
(with a truncated-sum residual as an independent cross-check), and
evaluates the explicit geometric envelope that dominates the difference of
two forced orbits past the index where the forcing difference is small.

Orbits are computed by verified block sweeps (Jacobi waveform relaxation):
a block of rows is swept as a whole until the sweep reproduces it bit for
bit, which makes every row equal to the one-step-at-a-time orbit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chaos import Series, VectorSequence, row_norms, settling_positions
from .errors import ArgumentError, AssumptionError, DomainError, WindowExhaustedError
from .nonlinearity import Nonlinearity

SUM_SAMPLES = 16  # indices at which orbit_sum_residual re-sums an orbit
DIFFERENCE_LADDER = (1e-3, 1e-4, 1e-5, 1e-6)  # rungs convergence_check_discrete settles at


@dataclass(frozen=True)
class DiscreteSystemSpec:
    """Matrix B, bounded Lipschitz nonlinearity and forcing sequence.

    The spec is the one home of the system's contraction constants: the
    spectral norm |B| (``norm_b``, computed once), the rate q = |B| + L
    (``rate``) and the margin 1 - q (``margin``), which ``contraction_margin``
    returns only when it is positive, exactly when q < 1.
    """

    matrix: np.ndarray
    nonlinearity: Nonlinearity
    forcing: Series

    def __post_init__(self):
        b = np.asarray(self.matrix, dtype=float)
        if b.ndim != 2 or b.shape[0] != b.shape[1] or not np.all(np.isfinite(b)):
            raise DomainError("system matrix must be square with finite entries")
        if self.forcing.dim != b.shape[0]:
            raise DomainError("forcing dimension does not match the matrix")
        object.__setattr__(self, "matrix", b)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @functools.cached_property
    def norm_b(self) -> float:
        return spectral_norm(self.matrix)

    @property
    def rate(self) -> float:
        """The contraction rate q = |B| + L."""
        return self.norm_b + self.nonlinearity.lipschitz

    @property
    def margin(self) -> float:
        """The contraction margin 1 - q, whatever its sign."""
        return 1.0 - self.rate

    def contraction_margin(self) -> float:
        """The margin 1 - q; ``AssumptionError`` unless it is positive (B3)."""
        if not self.margin > 0.0:
            raise AssumptionError(f"contraction margin 1 - (|B| + L) = {self.margin!r} "
                                  "is not positive")
        return self.margin


def spectral_norm(b) -> float:
    """Largest singular value of a finite square matrix."""
    b = np.asarray(b, dtype=float)
    if b.ndim != 2 or b.shape[0] != b.shape[1] or not np.all(np.isfinite(b)):
        raise DomainError("expected a finite square matrix")
    return float(np.linalg.norm(b, 2))


# Block sweeps of ``iterate``: the first block has _FIRST_BLOCK_ROWS rows and
# each block that settles doubles the next, up to _BLOCK_ROWS.  A block still
# changing after _SWEEP_CAP sweeps ends the sweeps for the rest of the orbit.
# Fewer than _FIRST_BLOCK_ROWS remaining rows are stepped: a block settles
# only after some tens of sweeps, which cost more than single steps on fewer
# than about 200 rows.
_FIRST_BLOCK_ROWS = 256
_BLOCK_ROWS = 4096
_SWEEP_CAP = 96


def _matrix_lanes(b_rows: list, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[:, r] = B x[:, r]`` for every column ``r``, given ``b_rows = B.tolist()``.

    Works in column layout, one contiguous lane per component.  Lane ``i``
    of the product is summed as ``x[0] B[i, 0] + x[1] B[i, 1] + ...``, so a
    column gets the same bits however many columns are passed; a matrix
    product makes no such promise.
    """
    for i, bi in enumerate(b_rows):
        np.multiply(x[0], bi[0], out=out[i])
        for k in range(1, len(bi)):
            out[i] += x[k] * bi[k]
    return out


def _sweep_blocks(b_rows, g, phi, out, guess=None) -> tuple[int, int]:
    """Fill rows of ``out[j + 1] = B out[j] + g(out[j]) + phi[j]`` by block sweeps.

    Returns (index of the last exact row, sweeps).  A block past that row is
    filled with that row, or with the rows of ``guess`` (aligned with ``out``)
    when one is given, and swept as a whole.  Where a sweep leaves a row's
    bits unchanged, that row and the next one satisfy the recurrence exactly,
    so every sweep advances the exact prefix by at least one row.  Stops
    early when a block does not settle within the sweep cap, or when fewer
    than _FIRST_BLOCK_ROWS rows remain.

    A block is swept in column layout: its state, forcing and new sweep sit
    in (dim, rows) lane buffers, allocated once at the largest block size,
    and ``g`` sees the state as a column-major (rows, dim) view.  Settled
    rows go back to ``out`` once per block.
    """
    steps, dim = out.shape[0] - 1, out.shape[1]
    cap = min(_BLOCK_ROWS, steps)
    x_buf, f_buf, new_buf = np.empty((dim, cap + 1)), np.empty((dim, cap)), np.empty((dim, cap))
    known, rows, sweeps = 0, _FIRST_BLOCK_ROWS, 0
    while steps - known >= _FIRST_BLOCK_ROWS:
        end = min(known + rows, steps)
        n = end - known
        x, f, new = x_buf[:, :n + 1], f_buf[:, :n], new_buf[:, :n]
        x[:, 0] = out[known]
        x[:, 1:] = out[known, :, None] if guess is None else guess[known + 1:end + 1].T
        f[:] = phi[known:end].T
        bits, new_bits = x.view(np.uint64), new.view(np.uint64)
        s = 0  # x[:, s] is exact
        for _ in range(_SWEEP_CAP):
            lanes = new[:, s:]
            _matrix_lanes(b_rows, x[:, s:n], lanes)
            lanes += g(x[:, s:n].T).T
            lanes += f[:, s:]
            sweeps += 1
            changed = (new_bits[:, s:] != bits[:, s + 1:]).any(axis=0)
            first = int(changed.argmax())
            x[:, s + 1:] = lanes
            s = s + first + 1 if changed[first] else n
            if s == n:
                break
        else:
            out[known + 1:known + s + 1] = x[:, 1:s + 1].T
            return known + s, sweeps
        out[known + 1:end + 1] = x[:, 1:].T
        known = end
        rows = min(2 * rows, _BLOCK_ROWS)
    return known, sweeps


def _step_rows(b, g, phi, out, known: int) -> None:
    """Fill ``out[known + 1:]`` one transition at a time.

    Sums in Python floats in the order of ``_matrix_lanes``, so the rows carry
    the bits a block sweep would give them.
    """
    b_rows = b.tolist()
    cols = range(1, b.shape[0])
    w = out[known].tolist()
    for j, p in enumerate(phi[known:out.shape[0] - 1].tolist(), start=known):
        nxt = []
        for bi, gi, pi in zip(b_rows, g(out[j]).tolist(), p):
            acc = w[0] * bi[0]
            for k in cols:
                acc += w[k] * bi[k]
            nxt.append(acc + gi + pi)
        out[j + 1] = w = nxt


def _orbit_rows(b, g, phi, out, guess=None) -> tuple[int, int]:
    """Fill ``out[1:]`` from ``out[0]``; returns (sweeps, rows stepped one at a time).

    Speculative sweep rows may overflow before they are discarded, so the
    sweeps run with floating-point warnings off.
    """
    with np.errstate(all="ignore"):
        known, sweeps = _sweep_blocks(b.tolist(), g, phi, out, guess)
    _step_rows(b, g, phi, out, known)
    return sweeps, out.shape[0] - 1 - known


def iterate(spec: DiscreteSystemSpec, start_state, steps: int,
            start_index: int | None = None,
            guess: np.ndarray | None = None) -> Series:
    """Forward orbit of ``steps`` transitions starting at ``start_index``.

    Each row equals, bit for bit, one transition
    ``B w + g(w) + forcing`` applied to the row before it, with ``B w``
    summed column by column (see ``_matrix_lanes``).

    ``guess``, of shape (steps + 1, dim), seeds the block sweeps: row j is a
    guess for the row at index start_index + j, say from the orbit of a
    nearby system.  It changes how many sweeps a block takes, never a bit of
    the result, since a row is kept only once a sweep reproduces it; a block
    that a poor guess keeps from settling within the sweep cap hands the
    rest of the orbit to one-step-at-a-time transitions.
    """
    if steps < 0:
        raise DomainError("steps must be non-negative")
    forcing = spec.forcing
    i0 = forcing.t_start if start_index is None else int(start_index)
    if i0 < forcing.t_start or i0 + steps > forcing.t_end + 1:
        raise WindowExhaustedError(
            f"forcing window [{forcing.t_start}, {forcing.t_end + 1}) "
            f"does not cover indices [{i0}, {i0 + steps})")
    w = np.atleast_1d(np.asarray(start_state, dtype=float))
    if w.shape != (spec.dim,):
        raise DomainError(f"start state must have shape ({spec.dim},)")
    out = np.empty((steps + 1, spec.dim))
    out[0] = w
    if guess is not None:
        guess = np.asarray(guess, dtype=float)
        if guess.shape != out.shape:
            raise DomainError(f"guess must have shape {out.shape}")
    k0 = i0 - forcing.t_start
    _orbit_rows(spec.matrix, spec.nonlinearity, forcing.values[k0:k0 + steps], out, guess)
    return VectorSequence(i0, out)


def burn_in_length(spec: DiscreteSystemSpec, tol: float) -> int:
    """Iterations needed to push zero-start contamination below ``tol``."""
    margin, q = spec.contraction_margin(), spec.rate
    scale = (spec.nonlinearity.bound + spec.forcing.sup_norm()) / (1.0 - spec.norm_b)
    if scale <= tol or q == 0.0:
        return 1
    if tol * margin / scale == 0.0:
        raise ArgumentError("tol", "is so small that tol * margin / scale underflows to 0")
    return max(1, math.ceil(math.log(tol * margin / scale) / math.log(q)))


def bounded_orbit(spec: DiscreteSystemSpec, window: Sequence[int], tol: float = 1e-9,
                  guess: np.ndarray | None = None) -> Series:
    """Approximate the unique bounded orbit on ``window`` (inclusive) by burn-in.

    ``guess``, one row per window index, seeds the sweeps over the window as
    in ``iterate``; the burn-in before the window runs without one.
    """
    i0, i1 = int(window[0]), int(window[1])
    if i1 < i0:
        raise DomainError("empty window")
    burn = burn_in_length(spec, tol)
    start = iterate(spec, np.zeros(spec.dim), burn, start_index=i0 - burn).values[-1]
    return iterate(spec, start, i1 - i0, start_index=i0, guess=guess)


def orbit_sum_residual(spec: DiscreteSystemSpec, orbit: Series, tol: float = 1e-10) -> float:
    """Cross-check an orbit against the truncated sum representation.

    The bounded orbit equals sum_j B^(i-j) (g(orbit_{j-1}) + forcing_{j-1});
    the sum is cut once the geometric tail bound falls below ``tol``.  The
    returned value is the largest deviation over ``SUM_SAMPLES`` indices (truncation
    contributes at most ``tol`` of it).
    """
    norm_b = spec.norm_b
    if norm_b >= 1.0:
        raise AssumptionError("sum representation needs |B| < 1")
    m_phi = spec.forcing.sup_norm()
    scale = (spec.nonlinearity.bound + m_phi) / (1.0 - norm_b)
    depth = max(1, math.ceil(math.log(tol / max(scale, tol)) / math.log(max(norm_b, 1e-300))))
    lo = max(orbit.t_start, spec.forcing.t_start) + depth + 1
    if lo > orbit.t_end:
        raise DomainError("orbit window too short for the requested truncation depth")
    picks = np.arange(lo, orbit.t_end + 1)[::max(1, (orbit.t_end + 1 - lo) // SUM_SAMPLES)]
    if picks[-1] > spec.forcing.t_end + 1:
        raise WindowExhaustedError(f"forcing window ends before index {int(picks[-1]) - 1}")
    # every sampled sum advances together, one (dim, samples) lane block per term
    b_rows = spec.matrix.tolist()
    acc, nxt = np.zeros((spec.dim, picks.size)), np.empty((spec.dim, picks.size))
    for j in range(-depth, 1):
        prev = picks + (j - 1)
        acc, nxt = _matrix_lanes(b_rows, acc, nxt), acc
        acc += spec.nonlinearity(orbit.values[prev - orbit.t_start]).T
        acc += spec.forcing.values[prev - spec.forcing.t_start].T
    gaps = acc.T - orbit.values[picks - orbit.t_start]
    return max(0.0, *(float(np.linalg.norm(gap)) for gap in gaps))


def gamma_ceiling(spec: DiscreteSystemSpec, m_phi: float, m_psi: float) -> float:
    """Largest admissible gamma for the geometric envelope."""
    big = 2.0 * spec.nonlinearity.bound + m_phi + m_psi
    return 1.0 / (1.0 / spec.contraction_margin() + big / (1.0 - spec.norm_b))


@dataclass(frozen=True)
class GronwallEnvelope:
    """Geometric envelope dominating |Phi_i - Psi_i| for i > alpha."""

    alpha: int
    start_index: int
    values: np.ndarray
    persistent_level: float
    decay_base: float

    def __len__(self) -> int:
        return self.values.size


def gronwall_envelope(spec: DiscreteSystemSpec, m_phi: float, m_psi: float, alpha: int,
                      gamma: float, epsilon: float, window: Sequence[int]) -> GronwallEnvelope:
    """Evaluate the explicit geometric bound over ``window`` for indices past alpha.

    The bound combines a persistent level gamma*eps/(1 - (|B| + L)) with a
    transient proportional to (|B| + L)^(i - alpha).
    """
    margin, q = spec.contraction_margin(), spec.rate
    ceiling = gamma_ceiling(spec, m_phi, m_psi)
    if not gamma < ceiling:
        raise DomainError(f"gamma {gamma!r} must lie strictly below {ceiling!r}")
    if not epsilon > 0.0:
        raise DomainError("epsilon must be positive")
    i0, i1 = int(window[0]), int(window[1])
    start = max(i0, int(alpha) + 1)
    if i1 < start:
        raise DomainError("window lies entirely at or before alpha")
    i = np.arange(start, i1 + 1)
    geo = q ** (i - alpha)
    persistent = gamma * epsilon / margin
    transient = (2.0 * spec.nonlinearity.bound + m_phi + m_psi) / (1.0 - spec.norm_b)
    return GronwallEnvelope(
        alpha=int(alpha),
        start_index=start,
        values=persistent * (1.0 - geo) + transient * geo,
        persistent_level=persistent,
        decay_base=q,
    )


@dataclass(frozen=True)
class DiscreteConvergenceReport:
    """Envelope domination check for the difference of the two forced orbits."""

    envelope_ok: bool
    max_excess: float
    worst_index: int
    crossings: tuple
    alpha: int
    checked_from: int
    checked_to: int


def convergence_check_discrete(phi_orbit: Series, psi_orbit: Series,
                               envelope: GronwallEnvelope, alpha: int, slack: float = 1e-9
                               ) -> DiscreteConvergenceReport:
    """Check |phi_orbit - psi_orbit| <= envelope + slack for i > alpha.

    Also reports the first index past which the running tail sup stays below
    each rung of ``DIFFERENCE_LADDER`` (None when a rung is never reached in the window).
    """
    phi_orbit.require_same_axis(psi_orbit)
    diff = row_norms(phi_orbit.values - psi_orbit.values)

    lo = max(envelope.start_index, int(alpha) + 1, phi_orbit.t_start)
    hi = min(envelope.start_index + len(envelope) - 1, phi_orbit.t_end)
    if hi < lo:
        raise DomainError("envelope and orbit windows do not overlap past alpha")
    d = diff[lo - phi_orbit.t_start: hi - phi_orbit.t_start + 1]
    e = envelope.values[lo - envelope.start_index: hi - envelope.start_index + 1]
    excess = d - e
    worst = int(np.argmax(excess))

    crossings = [(float(rung), None if k is None else phi_orbit.t_start + k) for rung, k
                 in zip(DIFFERENCE_LADDER, settling_positions(diff, DIFFERENCE_LADDER))]

    return DiscreteConvergenceReport(
        envelope_ok=bool(excess.max() <= slack),
        max_excess=float(excess.max()),
        worst_index=int(lo + worst),
        crossings=tuple(crossings),
        alpha=int(alpha),
        checked_from=int(lo),
        checked_to=int(hi),
    )
