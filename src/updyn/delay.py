"""Quasilinear delay systems: x'(t) = A x(t) + f(x(t - tau)) + forcing(t).

The linear part must be exponentially stable, with |exp(At)| <= N exp(-rate*t)
proven for all t >= 0: by the modal matrix's condition number when that is
below 1e8 (exact mode), otherwise by a Lyapunov certificate (lyapunov mode).
The matrix alone decides the mode, and one with neither proof is refused.
The system spec owns N, the rate lambda and the A3 contraction margin, each
computed in one place, so the routines below take the spec alone.  The
module integrates the system by the method of steps with a classical
fourth-order scheme, recovers the unique bounded solution by burn-in, and
exposes the contraction operator whose fixed point is the difference of two
forced solutions.  All of that feeds the convergence check against the
explicit exponential envelope.

Both the integrator and the contraction operator are segment-blocked.  With
k steps per delay, everything delayed that one delay segment needs is known
once the previous segment is, and because A is linear each step is affine
in the state, y_{j+1} = y_j @ mt + c_j.  ``_powers_toeplitz`` builds the
matrices that advance k such rows in one product: the start row times the
powers mt^1..mt^k plus the offsets times a block Toeplitz matrix of the same
powers.  ``picard_apply`` scans with them directly.  ``integrate_mos``
further folds the RK4 offset maps into the Toeplitz matrix, so a segment
is one cubic stencil, one nonlinearity call and one product from its
half-grid inputs, and it advances several forcings of one system (a run
axis) through each segment together.  It first fills whole segments by
lockstep lanes (``lanes.py``) from wrong starts, kept only where the
contraction has drawn them onto the segment loop's bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import lanes
from .chaos import GridFunction, Series, row_norms, settling_positions
from .errors import (ArgumentError, AssumptionError, DomainError, NonFiniteStateError,
                     StabilityError)
from .nonlinearity import Nonlinearity

FIT_FRACTION = 0.9  # lyapunov mode backs the rate off to this share of the abscissa


@dataclass(frozen=True)
class DelaySystemSpec:
    """Matrix, delay, bounded Lipschitz nonlinearity and forcing term.

    ``forcing`` is a vectorized callable t -> (len(t), dim).  The spec is the
    one home of the system's stability and contraction constants: the bound
    |exp(At)| <= N exp(-lambda t) (``constants``, computed once by
    ``stability_constants``) and the A3 margin lambda - 2 N L exp(lambda tau / 2)
    (``margin``), which ``contraction_margin`` returns only when it is positive.
    """

    matrix: np.ndarray
    delay: float
    nonlinearity: Nonlinearity
    forcing: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or not np.all(np.isfinite(a)):
            raise DomainError("system matrix must be square with finite entries")
        if not (self.delay > 0.0):
            raise DomainError("delay must be positive")
        object.__setattr__(self, "matrix", a)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @functools.cached_property
    def constants(self) -> StabilityConstants:
        """N and lambda of the matrix; ``StabilityError`` when it has none."""
        return stability_constants(self.matrix)

    @property
    def margin(self) -> float:
        """The A3 margin, whatever its sign: lambda itself when L = 0, and -inf
        once the exponential leaves the float range."""
        n, lam = self.constants.amplitude, self.constants.decay_rate
        coupling = 2.0 * n * self.nonlinearity.lipschitz
        if coupling == 0.0:
            return lam
        try:
            return lam - coupling * math.exp(lam * self.delay / 2.0)
        except OverflowError:
            return -math.inf

    def contraction_margin(self) -> float:
        """The A3 margin; ``AssumptionError`` unless it is positive."""
        if not self.margin > 0.0:
            raise AssumptionError(f"contraction margin lambda - 2 N L exp(lambda tau / 2) = "
                                  f"{self.margin!r} is not positive")
        return self.margin


@dataclass(frozen=True)
class StabilityConstants:
    """|exp(At)| <= amplitude * exp(-decay_rate * t), proven for all t >= 0 in either
    ``mode``, "exact" or "lyapunov" (see ``stability_constants``)."""

    amplitude: float
    decay_rate: float
    mode: str


@dataclass(frozen=True)
class ProofConstants:
    """Envelope constants: k1 scales the decaying exponential, k2 the residual
    forcing level, m0 bounds the solution difference in sup norm."""

    k1: float
    k2: float
    m0: float


def _real_modal_matrix(a: np.ndarray) -> np.ndarray:
    """Columns spanning the real modal form (Re v, Im v for complex pairs)."""
    eigs, vecs = np.linalg.eig(a)
    cols = []
    used = np.zeros(len(eigs), dtype=bool)
    for j, lam in enumerate(eigs):
        if used[j]:
            continue
        if abs(lam.imag) > 1e-12 * max(1.0, abs(lam)):
            partner = None
            for k in range(j + 1, len(eigs)):
                if not used[k] and abs(eigs[k] - lam.conjugate()) <= 1e-8 * max(1.0, abs(lam)):
                    partner = k
                    break
            if partner is None:
                raise StabilityError("complex eigenvalue without a conjugate partner")
            used[partner] = True
            cols.append(vecs[:, j].real)
            cols.append(vecs[:, j].imag)
        else:
            cols.append(vecs[:, j].real)
        used[j] = True
    return np.column_stack(cols)


# Degree-13 Pade coefficients b_0 .. b_13 and the 1-norm bound theta_13 up to which
# they give exp(A) to double precision (Higham 2005).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
           129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
           40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _divided_exp(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(e^y - e^x) / (y - x), and e^x where y = x: for |y - x| <= 2 in the form
    e^((x+y)/2) sinh((y-x)/2) / ((y-x)/2), which has no cancellation."""
    half = 0.5 * (y - x)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        near = np.exp(0.5 * (x + y)) * np.where(half == 0.0, 1.0, np.sinh(half) / half)
        far = (np.exp(y) - np.exp(x)) / (y - x)
    return np.where(np.abs(half) <= 1.0, near, far)


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring with the degree-13 Pade approximant (Higham 2005).

    A 1x1 or diagonal ``a`` gives the exponential of its diagonal.  When a @ a is not
    finite the result is not finite either.  For triangular ``a`` the diagonal and the
    first off-diagonal are set to their exact values after the approximant and after
    each squaring (Al-Mohy and Higham 2009, Code Fragment 2.1), so a huge off-diagonal
    entry cannot wash them out.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if not np.any(a - np.diag(np.diag(a))):
        return np.diag(np.exp(np.diag(a))) if n > 1 else np.exp(a)
    with np.errstate(over="ignore", invalid="ignore"):
        a2 = a @ a
    if not np.isfinite(a2).all():
        return np.full_like(a, np.nan)
    norm = float(np.abs(a).sum(axis=0).max())
    s = max(0, math.ceil(math.log2(norm / _THETA13)))
    scale = 2.0 ** -s
    a1, a2 = a * scale, a2 * scale * scale
    a4 = a2 @ a2
    a6 = a4 @ a2
    b, eye = _PADE13, np.eye(n)
    u = a1 @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
              + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)

    upper, lower = not np.tril(a, -1).any(), not np.triu(a, 1).any()
    if not (upper or lower):
        for _ in range(s):
            r = r @ r
        return r
    d, sd = np.diag(a), np.diag(a, 1 if upper else -1)
    off = (slice(0, n - 1), slice(1, n)) if upper else (slice(1, n), slice(0, n - 1))
    for i in range(s, -1, -1):
        if i < s:
            r = r @ r
        step = 2.0 ** -i
        np.fill_diagonal(r, np.exp(d * step))
        np.fill_diagonal(r[off], _divided_exp(d[:-1] * step, d[1:] * step) * (sd * step))
    return np.triu(r) if upper else np.tril(r)


def _lyapunov_amplitude(a: np.ndarray, rate: float) -> float:
    """N with |exp(At)| <= N exp(-rate t) for all t >= 0, or ``StabilityError``.

    With S = A + rate I, P solves S^T P + P S = -I in Kronecker form.  Once
    Cholesky shows P > 0 and the residual R = S^T P + P S + I has |R| < 1,
    x^T P x never grows along x' = S x, so |exp(St)| <= sqrt(cond P) (Khalil,
    Nonlinear Systems, ch. 4): the Cholesky factor's condition number, which
    is exact to about eps N where P's least eigenvalue is only exact to eps N^2.
    """
    m = a.shape[0]
    eye = np.eye(m)
    s = a + rate * eye
    with np.errstate(all="ignore"):
        try:
            p = np.linalg.solve(np.kron(s.T, eye) + np.kron(eye, s.T), -eye.ravel()).reshape(m, m)
            p = 0.5 * (p + p.T)
            factor = np.linalg.cholesky(p)
            residual = float(np.linalg.norm(s.T @ p + p @ s + eye, 2))
        except np.linalg.LinAlgError as exc:
            raise StabilityError(f"no Lyapunov certificate at rate {rate:.6g}: {exc}") from None
        if not residual < 1.0:
            raise StabilityError(f"the Lyapunov certificate at rate {rate:.6g} has residual "
                                 f"{residual:.3g}, not below 1")
        return float(np.linalg.cond(factor))


def stability_constants(a) -> StabilityConstants:
    """(amplitude, decay_rate) bounding |exp(At)| for all t >= 0, or ``StabilityError``.

    Mode "exact" when the real modal matrix has a condition number below 1e8:
    the spectral abscissa is the rate and that condition number the amplitude.
    Otherwise mode "lyapunov": ``_lyapunov_amplitude`` at ``FIT_FRACTION`` of
    the abscissa.  A matrix that is not diagonal and whose A @ A is not finite
    is refused too, since ``_expm`` gives no finite exp(A h) for it.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("expected a square matrix")
    eigs = np.linalg.eigvals(a)
    abscissa = float(eigs.real.max())
    if abscissa >= 0.0:
        raise StabilityError(
            f"spectral abscissa {abscissa:.6g} is not negative; eigenvalues {eigs}")
    with np.errstate(over="ignore", invalid="ignore"):
        if np.any(a - np.diag(np.diag(a))) and not np.isfinite(a @ a).all():
            raise StabilityError("A @ A is not finite, so exp(A h) cannot be computed")

    try:
        sv = np.linalg.svd(_real_modal_matrix(a), compute_uv=False)
        with np.errstate(over="ignore"):  # an overflow means inf, and lyapunov mode
            cond = sv[0] / sv[-1] if sv[-1] > 0 else math.inf
    except StabilityError:
        cond = math.inf
    if cond < 1e8:
        return StabilityConstants(float(cond), -abscissa, "exact")
    rate = FIT_FRACTION * (-abscissa)
    return StabilityConstants(_lyapunov_amplitude(a, rate), rate, "lyapunov")


def _exact_ratio(span: float, step: float, what: str) -> int:
    k = round(span / step)
    if k < 1 or abs(k * step - span) > 1e-9 * max(1.0, abs(span)):
        raise DomainError(f"step {step!r} does not divide the {what} {span!r}")
    return int(k)


def constant_history(value, t_end: float, tau: float, step: float) -> Series:
    """Constant history segment on [t_end - tau, t_end]."""
    k = _exact_ratio(tau, step, "delay")
    v = np.atleast_1d(np.asarray(value, dtype=float))
    return GridFunction(t_end - tau, step, np.tile(v, (k + 1, 1)))


def _forcing_on_half_grid(forcing: Callable[[np.ndarray], np.ndarray], t0: float, step: float,
                          n_steps: int, dim: int) -> np.ndarray:
    times = t0 + 0.5 * step * np.arange(2 * n_steps + 1)
    vals = np.asarray(forcing(times), dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    if vals.shape != (times.size, dim):
        raise DomainError(f"forcing produced shape {vals.shape}, expected {(times.size, dim)}")
    if not np.all(np.isfinite(vals)):
        raise DomainError("forcing values must be finite")
    return vals


def _midpoint_stencils(n: int, k: int, dim: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Node indices and weights of the cubic stencil for each of ``n`` half nodes.

    Solutions of delay systems lose smoothness at multiples of the delay
    past the history junction, so stencils must not straddle the segment
    boundaries at nodes 0, k, 2k, ...  Each segment's first midpoint uses a
    forward stencil and its last a backward one, the others a centred one;
    a final segment shorter than three intervals has no forward stencil
    inside it and falls back to the backward one.  Returns ``index`` of shape
    (4, n), the four nodes of each stencil, and ``weight`` of shape (4, n, dim):
    repeated over the ``dim`` components, the weights multiply in one
    contiguous pass.
    """
    j = np.arange(n)
    backward = (j % k == k - 1) | (j >= (n - 2 if n % k == 2 else n - 1))
    forward = (j % k == 0) & (j < n - 2)
    index = np.where(backward, j - 2, np.where(forward, j, j - 1)) + np.arange(4)[:, None]
    weight = np.where(backward, [[1.0], [-5.0], [15.0], [5.0]],
                      np.where(forward, [[5.0], [15.0], [-5.0], [1.0]],
                               [[-1.0], [9.0], [9.0], [-1.0]]))
    return index, np.repeat(weight[:, :, None], dim, axis=2)


def _midpoints(xs: np.ndarray, stencils: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Cubic values between the nodes on the next-to-last axis of ``xs``.

    Sums ((w0 x0 + w1 x1) + w2 x2) + w3 x3, then divides by 16: term for
    term the bits of the written-out stencils (-x0 + 9 x1 + 9 x2 - x3) / 16,
    (5 x0 + 15 x1 - 5 x2 + x3) / 16 and (x0 - 5 x1 + 15 x2 + 5 x3) / 16,
    since a product with -1 or a negative weight only flips a sign.
    """
    index, weight = stencils
    terms = np.take(xs, index, axis=-2) * weight
    mids = terms[..., 0, :, :] + terms[..., 1, :, :]
    mids += terms[..., 2, :, :]
    mids += terms[..., 3, :, :]
    mids /= 16.0
    return mids


def _rk4_step(a: np.ndarray, x: np.ndarray, b0: np.ndarray, bm: np.ndarray,
              b1: np.ndarray, h: float) -> np.ndarray:
    """Classical RK4 step of x' = A x + b for each row of ``x``.

    ``b0``, ``bm`` and ``b1`` hold the inhomogeneous term at the start, the
    midpoint and the end of the step.
    """
    at = a.T
    k1 = x @ at + b0
    k2 = (x + 0.5 * h * k1) @ at + bm
    k3 = (x + 0.5 * h * k2) @ at + bm
    k4 = (x + h * k3) @ at + b1
    return x + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _powers_toeplitz(mt: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Matrices that advance the rows of y_{j+1} = y_j @ mt + c_j by ``k`` steps at once.

    Column block j of ``powers`` is mt^(j+1) and block (i, j) of ``toeplitz``
    is mt^(j-i) for i <= j (zero below), so the rows y_1 .. y_k are
    y0 @ powers + c.ravel() @ toeplitz, and the leading n blocks serve n < k rows.
    """
    m = mt.shape[0]
    stack = np.empty((k + 1, m, m))
    stack[0] = np.eye(m)
    for j in range(k):
        stack[j + 1] = stack[j] @ mt
    powers = stack[1:].transpose(1, 0, 2).reshape(m, k * m)
    lag = np.arange(k)[None, :] - np.arange(k)[:, None]
    toeplitz = np.where((lag >= 0)[:, :, None, None], stack[np.maximum(lag, 0)], 0.0)
    return powers, toeplitz.transpose(0, 2, 1, 3).reshape(k * m, k * m)


def _affine_scan(mt: np.ndarray, k: int) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Solver for the rows of y_{j+1} = y_j @ mt + c_j, ``k`` steps per matmul.

    Returns ``scan(y0, c)``, which gives the rows y_1 .. y_n for an offset
    array ``c`` of shape (n, m), one ``_powers_toeplitz`` block of k rows at a time.
    """
    m = mt.shape[0]
    powers, toeplitz = _powers_toeplitz(mt, k)

    def scan(y0: np.ndarray, c: np.ndarray) -> np.ndarray:
        out = np.empty(c.shape)
        y = y0
        for lo in range(0, len(c), k):
            rows = c[lo:lo + k]
            w = rows.size
            out[lo:lo + k] = (y @ powers[:, :w] + rows.ravel() @ toeplitz[:w, :w]).reshape(-1, m)
            y = out[lo + len(rows) - 1]
        return out
    return scan


def _segment_matrices(a: np.ndarray, h: float, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``(powers, g)`` that take one delay segment of ``k`` RK4 steps of x' = A x + b at once.

    Each step is affine, x_{j+1} = x_j @ mt + c_j, with mt the step applied
    to the identity and c_j = b_j @ p0 + b_{j+1/2} @ pm + b_{j+1} @ p1 the
    step from the zero state.  ``g`` folds those three offset maps into the
    ``_powers_toeplitz`` matrix, so the segment's rows are
    x_0 @ powers + b.ravel() @ g for the half-grid term b = (b_0, b_1/2, ..., b_k).
    Rows [:(2n + 1) m] and columns [:n m] of ``g`` serve a segment of n < k steps.
    """
    m = a.shape[0]
    eye, zero = np.eye(m), np.zeros((m, m))
    powers, toeplitz = _powers_toeplitz(_rk4_step(a, eye, 0.0, 0.0, 0.0, h), k)
    offsets = np.zeros((2 * k + 1, m, k, m))
    j = np.arange(k)
    for at, b in enumerate(((eye, zero, zero), (zero, eye, zero), (zero, zero, eye))):
        offsets[2 * j + at, :, j, :] = _rk4_step(a, zero, *b, h)
    return powers, offsets.reshape((2 * k + 1) * m, k * m) @ toeplitz


def _step_segment(a: np.ndarray, y: np.ndarray, b: np.ndarray, h: float, t0: float,
                  lo: int) -> np.ndarray:
    """One run's segment, ``lo`` steps past ``t0`` from state ``y`` with half-grid term ``b``,
    one ``_rk4_step`` at a time; ``NonFiniteStateError`` at its first non-finite state."""
    rows = np.empty((len(b) // 2, len(y)))
    for j in range(len(rows)):
        y = rows[j] = _rk4_step(a, y, *b[2 * j:2 * j + 3], h)
        if not np.isfinite(y).all():
            t = t0 + (lo + j + 1) * h
            raise NonFiniteStateError(f"state left the finite range at t = {t:.6g}")
    return rows


def _lane_segments(xs: np.ndarray, runs: np.ndarray, f: Nonlinearity, powers: np.ndarray,
                   g: np.ndarray, stencils: tuple[np.ndarray, np.ndarray]) -> int:
    """Fill whole delay segments of ``xs`` by ``lanes.settle``; returns the last exact one.

    ``xs`` is ``integrate_mos``'s (runs, k + n_steps + 1, dim) node array with
    the history in place, segment ``s`` being nodes ``s k .. s k + k``, and
    ``runs`` its half-grid forcing.  A lane's state is the k + 1 nodes of its
    segment for every run.  A step is one ``_midpoints``, one nonlinearity
    call and one ``powers`` and ``g`` product for all runs of all lanes: the
    segment loop's operations.  A round is given up at any non-finite value.

    The products are stacked, (lanes, runs, ...) @ matrix, which numpy
    computes as one BLAS call per lane over the runs' rows, the segment
    loop's product: a gemm for two or more runs, a gemv for one.  One flat
    gemm over all lanes' rows would not do: it rounds a row differently from
    a gemm over the runs alone for some shapes.  The forcing is read, and the
    segments are written, through strided views.
    """
    r, k, m = xs.shape[0], stencils[0].shape[1], xs.shape[2]
    (f0, f1, f2), (x0, x1, x2) = runs.strides, xs.strides

    def run(known, w, n):
        forcing = as_strided(runs[:, 2 * k * known:], (2 * w, n, r, 2 * k + 1, m),
                             (2 * k * f1, 2 * k * w * f1, f0, f1, f2), writeable=False)
        written = as_strided(xs[:, k * known + k + 1:], (2 * w, n, r, k, m),
                             (k * x1, k * w * x1, x0, x1, x2))
        state = np.repeat(xs[None, :, k * known:k * known + k + 1], n, axis=0)
        nxt, half = np.empty_like(state), np.empty((n, r, 2 * k + 1, m))
        for t in range(2 * w):
            half[..., 0::2, :] = state
            half[..., 1::2, :] = _midpoints(state, stencils)
            b = f(half)
            b += forcing[t]
            rows = state[..., k, :] @ powers
            rows += b.reshape(n, r, -1) @ g
            if not np.isfinite(rows).all():
                return None
            nxt[..., 0, :] = state[..., k, :]
            written[t] = nxt[..., 1:, :] = rows.reshape(n, r, k, m)
            state, nxt = nxt, state
            if t == w - 1:
                warmed = state.copy()
        return warmed, state

    known, _ = lanes.settle((xs.shape[1] - 1) // k - 1, lanes.first_warmup(powers[:, -m:]), run)
    return known


def integrate_mos(spec: DelaySystemSpec, history: Series, t_end: float,
                  step: float, forcing: np.ndarray | None = None) -> Series | list[Series]:
    """Method-of-steps trajectories on [t0, t_end] with classical RK4, one delay segment at a time.

    ``history`` must cover exactly one delay interval ending at the start
    time, sampled at the integration step.  The step must divide the delay
    (at least four steps per delay) so delayed nodes land on the grid; the
    half-stage delayed values come from a cubic stencil of already computed
    nodes, which preserves the fourth-order accuracy of the sweep.

    Without ``forcing`` the system is driven by ``spec.forcing`` and one
    trajectory is returned.  ``forcing`` instead gives several forcings of the
    same system and history, sampled on the half grid t0 + j*step/2,
    j = 0 .. 2*n_steps, as an array of shape (runs, 2*n_steps + 1, dim); a
    list of one trajectory per run is returned, all advanced together.

    Once a delay segment is known, every delayed input of the next one is
    known too, and with A linear the RK4 step is affine in the state.  A
    segment therefore takes the cubic stencil over the delayed segment of
    every run, one nonlinearity call on the interleaved delayed nodes and
    midpoints, and one product with the ``_segment_matrices``.  The product
    rounds differently from one step at a time in the last bits only (the
    tests hold it to 1e-12 of a step-by-step sweep).  A single run's product
    has one row, so BLAS takes it as a gemv, which rounds differently from the
    gemm that takes two or more runs: a run integrated alone may differ in
    the last bits from the same run in a batch.  Should a product come out
    non-finite, that segment is redone one ``_rk4_step`` at a time, so an
    overflow is reported at the time a step-by-step sweep reports it, and
    block powers that overflow while the state stays finite do no harm.

    Lockstep lanes (``_lane_segments``) first fill the whole segments where
    they merge, each with the bits this segment loop would give it, and the
    loop goes on from the last of them.
    """
    k = _exact_ratio(spec.delay, step, "delay")
    if k < 4:
        raise ArgumentError("step", f"gives {k} steps per delay interval {spec.delay!r}; "
                                    "at least four are needed")
    if abs(history.step - step) > 1e-12 * step or len(history) != k + 1:
        raise DomainError("history must cover one delay interval at the integration step")
    t0 = history.t_end
    n_steps = _exact_ratio(t_end - t0, step, "integration window")
    m = spec.dim
    if history.dim != m:
        raise DomainError("history dimension does not match the system")
    if forcing is None:
        runs = _forcing_on_half_grid(spec.forcing, t0, step, n_steps, m)[None]
    else:
        runs = np.asarray(forcing, dtype=float)
        if runs.ndim != 3 or len(runs) == 0 or runs.shape[1:] != (2 * n_steps + 1, m):
            raise DomainError(f"forcing samples have shape {runs.shape}, expected "
                              f"(runs, {2 * n_steps + 1}, {m})")
        if not np.all(np.isfinite(runs)):
            raise DomainError("forcing values must be finite")

    r, f, h = len(runs), spec.nonlinearity, step
    powers, g = _segment_matrices(spec.matrix, h, k)
    xs = np.empty((r, k + n_steps + 1, m))
    xs[:, :k + 1] = history.values
    stencils = _midpoint_stencils(k, k, m)
    with np.errstate(all="ignore"):  # a lane that is later discarded may overflow
        done = _lane_segments(xs, runs, f, powers, g, stencils)
    half = np.empty((r, 2 * k + 1, m))  # delayed nodes and midpoints, interleaved
    for lo in range(done * k, n_steps, k):
        n = min(k, n_steps - lo)
        delayed = xs[:, lo:lo + k + 1]
        half[:, 0::2] = delayed
        half[:, 1::2] = _midpoints(delayed, stencils)
        b = f(half[:, :2 * n + 1]) + runs[:, 2 * lo:2 * (lo + n) + 1]
        y0 = xs[:, k + lo]
        rows = y0 @ powers[:, :n * m] + b.reshape(r, -1) @ g[:(2 * n + 1) * m, :n * m]
        if not np.isfinite(rows).all():
            rows = np.stack([_step_segment(spec.matrix, y0[i], b[i], h, t0, lo) for i in range(r)])
        xs[:, k + lo + 1:k + lo + n + 1] = rows.reshape(r, n, m)
    trajectories = [GridFunction(t0, step, x[k:]) for x in xs]
    return trajectories[0] if forcing is None else trajectories


def burn_in_time(spec: DelaySystemSpec, tol: float) -> float:
    """Time units ``bounded_solution`` integrates before its window."""
    return (2.0 / spec.constants.decay_rate) * math.log(1.0 / tol)


def tail_start(spec: DelaySystemSpec, alpha: float, gamma: float, epsilon: float) -> float:
    """alpha + (2/lambda) ln(1/(gamma epsilon)): the time past which ``convergence_check``
    holds the difference of two forced solutions below ``epsilon``."""
    return alpha + burn_in_time(spec, gamma * epsilon)


def bounded_solution(spec: DelaySystemSpec, window: Sequence[float], step: float,
                     tol: float = 1e-8) -> Series:
    """Approximate the unique bounded solution on ``window`` by burn-in.

    Integration starts ``burn_in_time`` time units before the window from a
    zero history; global exponential stability collapses the influence of
    that choice below ``tol`` by the window start.  A step whose RK4 step
    matrix has spectral radius 1 or more would amplify that history instead
    of forgetting it, however stable the system, and is refused.
    """
    spec.contraction_margin()
    with np.errstate(over="ignore", invalid="ignore"):
        mt = _rk4_step(spec.matrix, np.eye(spec.dim), 0.0, 0.0, 0.0, step)
    rho = float(np.abs(np.linalg.eigvals(mt)).max()) if np.isfinite(mt).all() else math.inf
    if not rho < 1.0:
        raise ArgumentError(("step", "matrix"), f"an RK4 step of {step!r} has spectral radius "
                                                f"{rho:.4g} on this system; it must be below 1")
    w0, w1 = float(window[0]), float(window[1])
    n_burn = max(1, math.ceil(burn_in_time(spec, tol) / step - 1e-9))
    t_start = w0 - n_burn * step
    history = constant_history(np.zeros(spec.dim), t_start, spec.delay, step)
    traj = integrate_mos(spec, history, w1, step)
    return traj.restrict(w0, w1)


def proof_constants(spec: DelaySystemSpec, m_phi: float, m_psi: float) -> ProofConstants:
    """Envelope constants from the proven stability bound ``spec.constants`` and
    measured forcing sups."""
    n, lam = spec.constants.amplitude, spec.constants.decay_rate
    mf = spec.nonlinearity.bound
    lf = spec.nonlinearity.lipschitz
    margin = spec.contraction_margin()
    if lam - n * lf <= 0.0:
        raise AssumptionError("decay rate must dominate N * lipschitz")
    k1 = n * n * (2.0 * mf + m_phi + m_psi) / margin
    k2 = n / (lam - n * lf)
    m0 = (n * n * (2.0 * mf + m_phi + m_psi) + n * (m_phi + m_psi)) / (lam - n * lf)
    return ProofConstants(k1=k1, k2=k2, m0=m0)


def picard_apply(spec: DelaySystemSpec, psi_solution: Series, theta: Series,
                 candidate: Series, alpha: float) -> Series:
    """One application of the contraction operator to a candidate difference.

    Values at t <= alpha pass through unchanged; past alpha the operator
    returns exp(A(t-alpha)) * candidate(alpha) plus the trapezoid quadrature
    of the damped nonlinearity difference and tail terms.  All three grid
    functions must share a grid that reaches back at least one delay before
    alpha.

    With E = exp(A h), the sum y = propagated value + quadrature obeys the
    affine recurrence y_{j+1} = E y_j + (h/2)(E u_j + u_{j+1}), u the
    inhomogeneous term, which one blocked scan advances a delay at a time.
    """
    psi_solution.require_same_axis(theta)
    psi_solution.require_same_axis(candidate)
    g = candidate
    a_idx = g.index_at(alpha)
    k = _exact_ratio(spec.delay, g.step, "delay")
    if a_idx < k:
        raise DomainError("grid must reach one delay interval before alpha")
    n = len(g)
    h = g.step
    f = spec.nonlinearity
    e_step = _expm(spec.matrix * h)

    delayed = slice(a_idx - k, n - k)
    inhomo = f(g.values[delayed] + psi_solution.values[delayed]) \
        - f(psi_solution.values[delayed]) + theta.values[a_idx:]
    damped = inhomo @ e_step.T

    out = np.array(g.values, copy=True)
    offsets = 0.5 * h * (damped[:-1] + inhomo[1:])
    out[a_idx + 1:] = _affine_scan(e_step.T, k)(g.values[a_idx], offsets)
    return replace(g, values=out)


@dataclass(frozen=True)
class DelayConvergenceReport:
    """Pointwise envelope check for the difference of the two forced solutions."""

    envelope_ok: bool
    max_excess: float
    worst_time: float
    tail_start: float
    tail_sup: float
    tail_ok: bool
    crossings: tuple
    alpha: float


def convergence_check(phi_solution: Series, psi_solution: Series, spec: DelaySystemSpec,
                      proof: ProofConstants, alpha: float, gamma: float, epsilon: float,
                      slack: float = 1e-6,
                      ladder: Sequence[float] = (1e-1, 1e-2, 1e-3)) -> DelayConvergenceReport:
    """Verify |phi_sol - psi_sol| against k1*exp(-rate*(t-alpha)/2) + k2*gamma*eps.

    The envelope is checked for t >= alpha - delay; the report also locates
    the time past which the running tail sup stays below each ladder rung
    and checks the tail against epsilon beyond the predicted crossing time.
    """
    phi_solution.require_same_axis(psi_solution)
    if not gamma * (proof.k1 + proof.k2) < 1.0:
        raise DomainError("gamma must lie strictly below 1/(k1 + k2)")
    times = phi_solution.times()
    diff = row_norms(phi_solution.values - psi_solution.values)
    lam = spec.constants.decay_rate
    floor = proof.k2 * gamma * epsilon

    region = times >= alpha - spec.delay - 1e-12
    env = proof.k1 * np.exp(-0.5 * lam * (times[region] - alpha)) + floor
    excess = diff[region] - env
    worst = int(np.argmax(excess))

    start = tail_start(spec, alpha, gamma, epsilon)
    tail_mask = times >= start
    tail_sup = float(diff[tail_mask].max()) if tail_mask.any() else math.nan
    tail_ok = bool(tail_mask.any() and tail_sup < epsilon)

    crossings = [(float(rung), None if k is None else float(times[k]))
                 for rung, k in zip(ladder, settling_positions(diff, ladder))]

    return DelayConvergenceReport(
        envelope_ok=bool(excess.max() <= slack),
        max_excess=float(excess.max()),
        worst_time=float(times[region][worst]),
        tail_start=start,
        tail_sup=tail_sup,
        tail_ok=tail_ok,
        crossings=tuple(crossings),
        alpha=float(alpha),
    )
