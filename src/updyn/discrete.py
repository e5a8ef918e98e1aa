"""Quasilinear discrete systems: w_{i+1} = B w_i + g(w_i) + forcing_i.

Contraction requires |B| + L < 1 in the spectral norm.  The system spec, B
and g alone, computes that norm from the SVD once; the solvers take the
forcing.  The module approximates the unique bounded orbit by burn-in (with
a truncated-sum residual as an independent cross-check), and evaluates the
explicit geometric envelope that dominates the difference of two forced
orbits past the index where the forcing difference is small.

Orbits are computed by verified lockstep lanes (``lanes.py``), kept only
where they merge bit for bit with the exact orbit, which makes every row
equal to the one-step-at-a-time orbit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import lanes
from .chaos import Series, VectorSequence, row_norms, settling_positions
from .errors import ArgumentError, AssumptionError, DomainError, WindowExhaustedError
from .nonlinearity import Nonlinearity

SUM_SAMPLES = 16  # indices at which orbit_sum_residual re-sums an orbit
DIFFERENCE_LADDER = (1e-3, 1e-4, 1e-5, 1e-6)  # rungs convergence_check_discrete settles at


@dataclass(frozen=True)
class DiscreteSystemSpec:
    """Matrix B and bounded Lipschitz nonlinearity: the system, whatever forces it.

    The spec is the one home of the system's contraction constants: the
    spectral norm |B| (``norm_b``, computed once), the rate q = |B| + L
    (``rate``) and the margin 1 - q (``margin``), which ``contraction_margin``
    returns only when it is positive, exactly when q < 1.
    """

    matrix: np.ndarray
    nonlinearity: Nonlinearity

    def __post_init__(self):
        b = np.asarray(self.matrix, dtype=float)
        if b.ndim != 2 or b.shape[0] != b.shape[1] or not np.all(np.isfinite(b)):
            raise DomainError("system matrix must be square with finite entries")
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


def _step_rows(b, g, phi, out, known: int) -> None:
    """Fill ``out[known + 1:]`` one transition at a time.

    Sums in Python floats in the order of ``_matrix_lanes``, so the rows carry
    the bits a lane would give them.
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


def _orbit_rows(b, g, phi, out) -> tuple[float, int]:
    """Fill ``out[1:]`` from ``out[0]``; returns (warm-up length reached, rows stepped).

    ``lanes.settle`` fills the rows of ``out[j + 1] = B out[j] + g(out[j]) + phi[j]``
    where its lanes merge, and ``_step_rows`` the rest.  The lanes advance
    together in a (dim, n) state, whose every step goes straight to ``out``
    through the strided view ``out[known + t + 1::w][:n]``, ``phi`` being read
    the same way.  A lane that is later discarded may overflow, so the lanes
    run with floating-point warnings off.
    """
    b_rows, dim = b.tolist(), out.shape[1]

    def run(known, w, n):
        x, new = np.repeat(out[known, :, None], n, axis=1), np.empty((dim, n))
        for t in range(2 * w):
            _matrix_lanes(b_rows, x, new)
            new += g(x.T).T
            new += phi[known + t::w][:n].T
            out[known + t + 1::w][:n] = new.T
            x, new = new, x
            if t == w - 1:
                warmed = x.T.copy()
        return warmed, x.T

    with np.errstate(all="ignore"):
        known, warm = lanes.settle(out.shape[0] - 1, lanes.first_warmup(b), run)
    _step_rows(b, g, phi, out, known)
    return warm, out.shape[0] - 1 - known


def iterate(spec: DiscreteSystemSpec, forcing: Series, start_state, steps: int,
            start_index: int | None = None) -> Series:
    """Forward orbit under ``forcing`` of ``steps`` transitions starting at ``start_index``.

    Each row equals, bit for bit, one transition
    ``B w + g(w) + forcing`` applied to the row before it, with ``B w``
    summed column by column (see ``_matrix_lanes``).  The rows come from
    lockstep lanes that are kept only where they merge bit for bit with the
    exact orbit (see ``_orbit_rows``); a system that contracts too slowly for
    that, and a rest shorter than two lanes, is stepped one transition at a
    time.
    """
    if steps < 0:
        raise DomainError("steps must be non-negative")
    if forcing.dim != spec.dim:
        raise DomainError("forcing dimension does not match the matrix")
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
    k0 = i0 - forcing.t_start
    _orbit_rows(spec.matrix, spec.nonlinearity, forcing.values[k0:k0 + steps], out)
    return VectorSequence(i0, out)


def burn_in_length(spec: DiscreteSystemSpec, m_forcing: float, tol: float) -> int:
    """Iterations that push zero-start contamination below ``tol`` at forcing sup ``m_forcing``."""
    margin, q = spec.contraction_margin(), spec.rate
    scale = (spec.nonlinearity.bound + m_forcing) / (1.0 - spec.norm_b)
    if scale <= tol or q == 0.0:
        return 1
    if tol * margin / scale == 0.0:
        raise ArgumentError("tol", "is so small that tol * margin / scale underflows to 0")
    return max(1, math.ceil(math.log(tol * margin / scale) / math.log(q)))


def bounded_orbit(spec: DiscreteSystemSpec, forcing: Series, window: Sequence[int],
                  tol: float = 1e-9) -> Series:
    """Approximate the unique bounded orbit under ``forcing`` on ``window`` (inclusive) by
    burn-in; a window whose indices, burn-in included, leave the int64 range or start
    before the forcing is refused."""
    i0, i1 = int(window[0]), int(window[1])
    if i1 < i0:
        raise DomainError("empty window")
    burn = burn_in_length(spec, forcing.sup_norm(), tol)
    if not (-2 ** 63 <= i0 - burn and i1 < 2 ** 63):
        raise ArgumentError("window", f"spans [{i0 - burn}, {i1}] with its burn-in, past int64")
    if i0 - burn < forcing.t_start:
        raise ArgumentError(("window", "tol"), f"needs forcing from index {i0 - burn} with its "
                            f"burn-in, but the forcing starts at {forcing.t_start}")
    orbit = iterate(spec, forcing, np.zeros(spec.dim), burn + i1 - i0, start_index=i0 - burn)
    return orbit.restrict(i0, i1)


def sum_depth(spec: DiscreteSystemSpec, m_phi: float, tol: float) -> int:
    """Steps past which ``orbit_sum_residual`` cuts its sum, for |B| < 1 and a forcing of
    sup norm ``m_phi``: the geometric tail bound beyond them is below ``tol``."""
    norm_b = spec.norm_b
    scale = (spec.nonlinearity.bound + m_phi) / (1.0 - norm_b)
    return max(1, math.ceil(math.log(tol / max(scale, tol)) / math.log(max(norm_b, 1e-300))))


def orbit_sum_residual(spec: DiscreteSystemSpec, forcing: Series, orbit: Series,
                       tol: float = 1e-10) -> float:
    """Cross-check an orbit under ``forcing`` against the truncated sum representation.

    The bounded orbit equals sum_j B^(i-j) (g(orbit_{j-1}) + forcing_{j-1});
    the sum is cut once the geometric tail bound falls below ``tol``.  The
    returned value is the largest deviation over ``SUM_SAMPLES`` indices (truncation
    contributes at most ``tol`` of it).
    """
    if forcing.dim != spec.dim:
        raise DomainError("forcing dimension does not match the matrix")
    if spec.norm_b >= 1.0:
        raise AssumptionError("sum representation needs |B| < 1")
    depth = sum_depth(spec, forcing.sup_norm(), tol)
    lo = max(orbit.t_start, forcing.t_start) + depth + 1
    if lo > orbit.t_end:
        raise DomainError("orbit window too short for the requested truncation depth")
    picks = np.arange(lo, orbit.t_end + 1)[::max(1, (orbit.t_end + 1 - lo) // SUM_SAMPLES)]
    if picks[-1] > forcing.t_end + 1:
        raise WindowExhaustedError(f"forcing window ends before index {int(picks[-1]) - 1}")
    # every sampled sum advances together, one (dim, samples) lane block per term
    b_rows = spec.matrix.tolist()
    acc, nxt = np.zeros((spec.dim, picks.size)), np.empty((spec.dim, picks.size))
    for j in range(-depth, 1):
        prev = picks + (j - 1)
        acc, nxt = _matrix_lanes(b_rows, acc, nxt), acc
        acc += spec.nonlinearity(orbit.values[prev - orbit.t_start]).T
        acc += forcing.values[prev - forcing.t_start].T
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
    crossings: tuple
    alpha: int


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

    crossings = [(float(rung), None if k is None else phi_orbit.t_start + k) for rung, k
                 in zip(DIFFERENCE_LADDER, settling_positions(diff, DIFFERENCE_LADDER))]

    return DiscreteConvergenceReport(
        envelope_ok=bool(excess.max() <= slack),
        max_excess=float(excess.max()),
        crossings=tuple(crossings),
        alpha=int(alpha),
    )
