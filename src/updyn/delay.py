"""Quasilinear delay systems: x'(t) = A x(t) + f(x(t - tau)) + forcing(t).

The linear part must be exponentially stable.  The module certifies a decay
bound |exp(At)| <= N exp(-rate*t) on a verification grid, integrates the
system by the method of steps with a classical fourth-order scheme, recovers
the unique bounded solution by burn-in, and exposes the contraction operator
whose fixed point is the difference of two forced solutions.  All of that
feeds the convergence check against the explicit exponential envelope.

Both the integrator and the contraction operator are segment-blocked.  With
k steps per delay, everything delayed that one delay segment needs is known
once the previous segment is, and because A is linear each step is affine in
the state, y_{j+1} = y_j @ mt + c_j.  All offsets c_j of a segment come from
one vectorised call, and ``_affine_scan`` advances its k rows at once: the
start row times the powers mt^1..mt^k plus the offsets times a block
Toeplitz matrix of the same powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np
from scipy.linalg import expm

from .chaos import GridFunction
from .errors import (AssumptionError, DomainError, GridMismatchError,
                     NonFiniteStateError, StabilityError)
from .nonlinearity import Nonlinearity, SpotCheck, spot_check

Forcing = Union[Callable[[np.ndarray], np.ndarray], GridFunction]


@dataclass(frozen=True)
class DelaySystemSpec:
    """Matrix, delay, bounded Lipschitz nonlinearity and forcing term.

    ``forcing`` is either a vectorized callable t -> (len(t), dim) or a grid
    function whose step divides half the integration step.
    """

    matrix: np.ndarray
    delay: float
    nonlinearity: Nonlinearity
    forcing: Forcing

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


@dataclass(frozen=True)
class StabilityConstants:
    """Certified bound |exp(At)| <= amplitude * exp(-decay_rate * t), t >= 0."""

    amplitude: float
    decay_rate: float
    mode: str
    grid_slack: float
    spectral_abscissa: float


@dataclass(frozen=True)
class ProofConstants:
    """Envelope constants: k1 scales the decaying exponential, k2 the residual
    forcing level, m0 bounds the solution difference in sup norm."""

    k1: float
    k2: float
    m0: float


@dataclass(frozen=True)
class DelayAssumptionReport:
    """Spot-check outcome plus the contraction margin of the delay system."""

    spot: SpotCheck
    margin: float
    bound_declared: float
    lipschitz_declared: float

    @property
    def a1_pass(self) -> bool:
        return self.spot.bound_ok

    @property
    def a2_pass(self) -> bool:
        return self.spot.lipschitz_ok

    @property
    def a3_pass(self) -> bool:
        return self.margin > 0.0

    @property
    def all_pass(self) -> bool:
        return self.a1_pass and self.a2_pass and self.a3_pass


def _eig_abscissa(a: np.ndarray) -> tuple[np.ndarray, float]:
    eigs = np.linalg.eigvals(a)
    return eigs, float(eigs.real.max())


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


def verify_decay_bound(a: np.ndarray, amplitude: float, decay_rate: float,
                       grid_step: float = 0.05, grid_end: float = 20.0) -> float:
    """Smallest slack of amplitude*exp(-rate*t) - |exp(At)| over the grid."""
    e_step = expm(a * grid_step)
    acc = np.eye(a.shape[0])
    slack = amplitude - 1.0
    t = 0.0
    while t < grid_end - 1e-12:
        acc = acc @ e_step
        t += grid_step
        norm = np.linalg.svd(acc, compute_uv=False)[0]
        slack = min(slack, amplitude * math.exp(-decay_rate * t) - norm)
    return float(slack)


def stability_constants(a, lambda_fraction: float = 0.9, mode: str = "auto",
                        grid_step: float = 0.05, grid_end: float = 20.0) -> StabilityConstants:
    """Certified (amplitude, decay_rate) pair for |exp(At)|.

    ``mode="exact"`` uses the full spectral abscissa as the rate and the
    condition number of the real modal matrix as the amplitude; it requires
    a numerically diagonalizable matrix.  ``mode="fit"`` backs off the rate
    by ``lambda_fraction`` and fits the smallest amplitude on the grid,
    inflated by one percent.  ``mode="auto"`` prefers exact when available.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("expected a square matrix")
    if not (0.0 < lambda_fraction < 1.0):
        raise DomainError("lambda_fraction must lie in (0, 1)")
    if mode not in ("auto", "exact", "fit"):
        raise DomainError(f"unknown mode {mode!r}")
    eigs, abscissa = _eig_abscissa(a)
    if abscissa >= 0.0:
        raise StabilityError(
            f"spectral abscissa {abscissa:.6g} is not negative; eigenvalues {eigs}")

    chosen = None
    if mode in ("auto", "exact"):
        try:
            modal = _real_modal_matrix(a)
            sv = np.linalg.svd(modal, compute_uv=False)
            cond = sv[0] / sv[-1] if sv[-1] > 0 else math.inf
        except StabilityError:
            cond = math.inf
        if cond < 1e8:
            chosen = StabilityConstants(
                amplitude=float(cond),
                decay_rate=-abscissa,
                mode="exact",
                grid_slack=0.0,
                spectral_abscissa=abscissa,
            )
        elif mode == "exact":
            raise StabilityError("matrix is too close to defective for the exact mode")

    if chosen is None:
        rate = lambda_fraction * (-abscissa)
        e_step = expm(a * grid_step)
        acc = np.eye(a.shape[0])
        needed = 1.0
        t = 0.0
        while t < grid_end - 1e-12:
            acc = acc @ e_step
            t += grid_step
            norm = np.linalg.svd(acc, compute_uv=False)[0]
            needed = max(needed, norm * math.exp(rate * t))
        chosen = StabilityConstants(
            amplitude=1.01 * needed,
            decay_rate=rate,
            mode="fit",
            grid_slack=0.0,
            spectral_abscissa=abscissa,
        )

    slack = verify_decay_bound(a, chosen.amplitude, chosen.decay_rate, grid_step, grid_end)
    if slack < -1e-10:
        raise StabilityError(f"certified bound fails on the verification grid (slack {slack:.3e})")
    return StabilityConstants(chosen.amplitude, chosen.decay_rate, chosen.mode,
                              slack, chosen.spectral_abscissa)


def contraction_margin(spec: DelaySystemSpec, constants: StabilityConstants) -> float:
    """decay_rate - 2 * N * L * exp(decay_rate * tau / 2); positive means contraction."""
    n, lam = constants.amplitude, constants.decay_rate
    return lam - 2.0 * n * spec.nonlinearity.lipschitz * math.exp(lam * spec.delay / 2.0)


def check_assumptions_A(spec: DelaySystemSpec, constants: StabilityConstants,
                        pairs: int = 1000, seed: int = 1404) -> DelayAssumptionReport:
    """Spot-check the declared nonlinearity constants and report the margin."""
    return DelayAssumptionReport(
        spot=spot_check(spec.nonlinearity, spec.dim, pairs=pairs, seed=seed),
        margin=contraction_margin(spec, constants),
        bound_declared=spec.nonlinearity.bound,
        lipschitz_declared=spec.nonlinearity.lipschitz,
    )


def _exact_ratio(span: float, step: float, what: str) -> int:
    k = round(span / step)
    if k < 1 or abs(k * step - span) > 1e-9 * max(1.0, abs(span)):
        raise DomainError(f"step {step!r} does not divide the {what} {span!r}")
    return int(k)


def constant_history(value, t_end: float, tau: float, step: float) -> GridFunction:
    """Constant history segment on [t_end - tau, t_end]."""
    k = _exact_ratio(tau, step, "delay")
    v = np.atleast_1d(np.asarray(value, dtype=float))
    return GridFunction(t_end - tau, step, np.tile(v, (k + 1, 1)))


def _forcing_on_half_grid(forcing: Forcing, t0: float, step: float, n_steps: int,
                          dim: int) -> np.ndarray:
    times = t0 + 0.5 * step * np.arange(2 * n_steps + 1)
    if isinstance(forcing, GridFunction):
        ratio = (times - forcing.t_start) / forcing.step
        idx = np.round(ratio).astype(int)
        if np.any(np.abs(ratio - idx) > 1e-6) or idx.min() < 0 or idx.max() >= len(forcing):
            raise GridMismatchError(
                "grid forcing must cover the window with a step dividing half the integration step")
        vals = forcing.samples[idx]
    else:
        vals = np.asarray(forcing(times), dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
    if vals.shape != (times.size, dim):
        raise DomainError(f"forcing produced shape {vals.shape}, expected {(times.size, dim)}")
    if not np.all(np.isfinite(vals)):
        raise DomainError("forcing values must be finite")
    return vals


def _segment_midpoints(xs: np.ndarray, k: int) -> np.ndarray:
    """Cubic values at the half nodes of ``xs``, one per interval.

    Solutions of delay systems lose smoothness at multiples of the delay
    past the history junction, so stencils must not straddle the segment
    boundaries at nodes 0, k, 2k, ... of ``xs``.  Each segment's first
    midpoint uses a forward stencil and its last a backward one; a final
    segment shorter than three intervals has no forward stencil inside it
    and falls back to the backward one.
    """
    n = len(xs) - 1
    mids = np.empty((n,) + xs.shape[1:])
    mids[1:-1] = (-xs[:-3] + 9.0 * xs[1:-2] + 9.0 * xs[2:-1] - xs[3:]) / 16.0
    mids[0:n - 2:k] = (5.0 * xs[0:n - 2:k] + 15.0 * xs[1:n - 1:k] - 5.0 * xs[2:n:k]
                       + xs[3:n + 1:k]) / 16.0
    for lo, stride in ((k - 1, k), (n - 2 if n % k == 2 else n - 1, 1)):
        mids[lo:n:stride] = (xs[lo - 2:n - 2:stride] - 5.0 * xs[lo - 1:n - 1:stride]
                             + 15.0 * xs[lo:n:stride] + 5.0 * xs[lo + 1:n + 1:stride]) / 16.0
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


def _affine_scan(mt: np.ndarray, k: int) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Solver for the rows of y_{j+1} = y_j @ mt + c_j, ``k`` steps per matmul.

    Returns ``scan(y0, c)``, which gives the rows y_1 .. y_n for an offset
    array ``c`` of shape (n, m).  Column block j of ``powers`` is mt^(j+1)
    and block (i, j) of ``toeplitz`` is mt^(j-i) for i <= j (zero below), so
    one block of k rows is y0 @ powers + c.ravel() @ toeplitz.
    """
    m = mt.shape[0]
    stack = np.empty((k + 1, m, m))
    stack[0] = np.eye(m)
    for j in range(k):
        stack[j + 1] = stack[j] @ mt
    powers = stack[1:].transpose(1, 0, 2).reshape(m, k * m)
    lag = np.arange(k)[None, :] - np.arange(k)[:, None]
    toeplitz = np.where((lag >= 0)[:, :, None, None], stack[np.maximum(lag, 0)], 0.0)
    toeplitz = toeplitz.transpose(0, 2, 1, 3).reshape(k * m, k * m)

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


def _first_non_finite(scan, y0: np.ndarray, c: np.ndarray) -> int:
    """Index of the first non-finite row of ``scan(y0, c)``, as a step-by-step sweep finds it.

    A non-finite offset c_i also spoils the rows before i, through the zero
    blocks of the Toeplitz matrix, so only the rows of its finite prefix
    are searched.
    """
    finite = np.isfinite(c).all(axis=1)
    n_ok = len(c) if finite.all() else int(np.argmin(finite))
    bad = ~np.isfinite(scan(y0, c[:n_ok])).all(axis=1)
    return int(np.argmax(bad)) if bad.any() else n_ok


def integrate_mos(spec: DelaySystemSpec, history: GridFunction, t_end: float,
                  step: float) -> GridFunction:
    """Method-of-steps trajectory on [t0, t_end] with classical RK4, one delay segment at a time.

    ``history`` must cover exactly one delay interval ending at the start
    time, sampled at the integration step.  The step must divide the delay
    (at least four steps per delay) so delayed nodes land on the grid; the
    half-stage delayed values come from a cubic stencil of already computed
    nodes, which preserves the fourth-order accuracy of the sweep.

    Once a delay segment is known, every delayed input of the next one is
    known too, and with A linear the RK4 step is affine in the state:
    x_{n+1} = M x_n + c_n, where M is the step applied to the identity and
    c_n the step from the zero state.  Each segment therefore takes two
    nonlinearity calls (delayed nodes and delayed midpoints), one
    vectorised RK4 call for its k offsets and one blocked affine scan.
    """
    k = _exact_ratio(spec.delay, step, "delay")
    if k < 4:
        raise DomainError("need at least four steps per delay interval")
    if abs(history.step - step) > 1e-12 * step or len(history) != k + 1:
        raise DomainError("history must cover one delay interval at the integration step")
    t0 = history.t_end
    n_steps = _exact_ratio(t_end - t0, step, "integration window")
    m = spec.dim
    if history.dim != m:
        raise DomainError("history dimension does not match the system")

    forcing = _forcing_on_half_grid(spec.forcing, t0, step, n_steps, m)
    a = spec.matrix
    f = spec.nonlinearity
    h = step
    scan = _affine_scan(_rk4_step(a, np.eye(m), 0.0, 0.0, 0.0, h), k)
    xs = np.empty((k + n_steps + 1, m))
    xs[:k + 1] = history.samples
    for lo in range(0, n_steps, k):
        n = min(k, n_steps - lo)
        delayed = xs[lo:lo + k + 1]
        fd = f(delayed[:n + 1])
        fdm = f(_segment_midpoints(delayed, k)[:n])
        p = forcing[2 * lo:2 * (lo + n) + 1]
        c = _rk4_step(a, np.zeros((n, m)), fd[:-1] + p[0:-1:2], fdm + p[1::2],
                      fd[1:] + p[2::2], h)
        rows = scan(xs[k + lo], c)
        if not np.isfinite(rows).all():
            j = lo + _first_non_finite(scan, xs[k + lo], c)
            raise NonFiniteStateError(f"state left the finite range at t = {t0 + (j + 1) * h:.6g}")
        xs[k + lo + 1:k + lo + n + 1] = rows
    return GridFunction(t0, step, xs[k:])


def step_residuals(spec: DelaySystemSpec, trajectory: GridFunction,
                   history: GridFunction) -> np.ndarray:
    """Per-step defect of the integrated equation, re-evaluated by Simpson quadrature."""
    k = _exact_ratio(spec.delay, trajectory.step, "delay")
    xs = np.vstack([history.samples[:-1], trajectory.samples])
    n_steps = len(trajectory) - 1
    t0 = trajectory.t_start
    h = trajectory.step
    forcing = _forcing_on_half_grid(spec.forcing, t0, h, n_steps, spec.dim)
    a = spec.matrix
    f = spec.nonlinearity
    mids = _segment_midpoints(xs, k)

    node = slice(k, k + n_steps)
    rhs0 = xs[node] @ a.T + f(xs[:n_steps]) + forcing[0::2][:-1]
    rhs1 = xs[k + 1:] @ a.T + f(xs[1:n_steps + 1]) + forcing[0::2][1:]
    rhsm = mids[node] @ a.T + f(mids[:n_steps]) + forcing[1::2]
    simpson = (h / 6.0) * (rhs0 + 4.0 * rhsm + rhs1)
    defect = xs[k + 1:] - xs[node] - simpson
    return np.linalg.norm(defect, axis=1)


def bounded_solution(spec: DelaySystemSpec, constants: StabilityConstants,
                     window: Sequence[float], step: float, tol: float = 1e-8,
                     burn_in: float | None = None) -> GridFunction:
    """Approximate the unique bounded solution on ``window`` by burn-in.

    Integration starts ``burn_in`` time units before the window from a zero
    history; global exponential stability collapses the influence of that
    choice below ``tol`` by the window start.
    """
    if contraction_margin(spec, constants) <= 0.0:
        raise AssumptionError("contraction margin is not positive")
    w0, w1 = float(window[0]), float(window[1])
    if burn_in is None:
        burn_in = (2.0 / constants.decay_rate) * math.log(1.0 / tol)
    n_burn = max(1, math.ceil(burn_in / step - 1e-9))
    t_start = w0 - n_burn * step
    history = constant_history(np.zeros(spec.dim), t_start, spec.delay, step)
    traj = integrate_mos(spec, history, w1, step)
    return traj.restrict(w0, w1)


def proof_constants(spec: DelaySystemSpec, constants: StabilityConstants,
                    m_phi: float, m_psi: float) -> ProofConstants:
    """Envelope constants from the certified bound and measured forcing sups."""
    n, lam = constants.amplitude, constants.decay_rate
    mf = spec.nonlinearity.bound
    lf = spec.nonlinearity.lipschitz
    margin = contraction_margin(spec, constants)
    if margin <= 0.0:
        raise AssumptionError("contraction margin must be positive")
    if lam - n * lf <= 0.0:
        raise AssumptionError("decay rate must dominate N * lipschitz")
    k1 = n * n * (2.0 * mf + m_phi + m_psi) / margin
    k2 = n / (lam - n * lf)
    m0 = (n * n * (2.0 * mf + m_phi + m_psi) + n * (m_phi + m_psi)) / (lam - n * lf)
    return ProofConstants(k1=k1, k2=k2, m0=m0)


def picard_apply(spec: DelaySystemSpec, psi_solution: GridFunction, theta: GridFunction,
                 candidate: GridFunction, alpha: float) -> GridFunction:
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
    psi_solution.require_same_grid(theta)
    psi_solution.require_same_grid(candidate)
    g = candidate
    a_idx = g.index_at(alpha)
    k = _exact_ratio(spec.delay, g.step, "delay")
    if a_idx < k:
        raise DomainError("grid must reach one delay interval before alpha")
    n = len(g)
    h = g.step
    f = spec.nonlinearity
    e_step = expm(spec.matrix * h)

    delayed = slice(a_idx - k, n - k)
    inhomo = f(g.samples[delayed] + psi_solution.samples[delayed]) \
        - f(psi_solution.samples[delayed]) + theta.samples[a_idx:]
    damped = inhomo @ e_step.T

    out = np.array(g.samples, copy=True)
    offsets = 0.5 * h * (damped[:-1] + inhomo[1:])
    out[a_idx + 1:] = _affine_scan(e_step.T, k)(g.samples[a_idx], offsets)
    return GridFunction(g.t_start, g.step, out)


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
    gamma: float
    epsilon: float
    checked_from: float
    checked_to: float


def convergence_check(phi_solution: GridFunction, psi_solution: GridFunction,
                      constants: StabilityConstants, proof: ProofConstants, delay: float,
                      alpha: float, gamma: float, epsilon: float, slack: float = 1e-6,
                      ladder: Sequence[float] = (1e-1, 1e-2, 1e-3)) -> DelayConvergenceReport:
    """Verify |phi_sol - psi_sol| against k1*exp(-rate*(t-alpha)/2) + k2*gamma*eps.

    The envelope is checked for t >= alpha - delay; the report also locates
    the time past which the running tail sup stays below each ladder rung
    and checks the tail against epsilon beyond the predicted crossing time.
    """
    phi_solution.require_same_grid(psi_solution)
    if not gamma * (proof.k1 + proof.k2) < 1.0:
        raise DomainError("gamma must lie strictly below 1/(k1 + k2)")
    times = phi_solution.times()
    diff = np.linalg.norm(phi_solution.samples - psi_solution.samples, axis=1)
    lam = constants.decay_rate
    floor = proof.k2 * gamma * epsilon

    region = times >= alpha - delay - 1e-12
    env = proof.k1 * np.exp(-0.5 * lam * (times[region] - alpha)) + floor
    excess = diff[region] - env
    worst = int(np.argmax(excess))

    tail_start = alpha + (2.0 / lam) * math.log(1.0 / (gamma * epsilon))
    tail_mask = times >= tail_start
    tail_sup = float(diff[tail_mask].max()) if tail_mask.any() else math.nan
    tail_ok = bool(tail_mask.any() and tail_sup < epsilon)

    suffix = np.maximum.accumulate(diff[::-1])[::-1]
    crossings = []
    for rung in ladder:
        hit = np.nonzero(suffix < rung)[0]
        crossings.append((float(rung), float(times[hit[0]]) if hit.size else None))

    return DelayConvergenceReport(
        envelope_ok=bool(excess.max() <= slack),
        max_excess=float(excess.max()),
        worst_time=float(times[region][worst]),
        tail_start=tail_start,
        tail_sup=tail_sup,
        tail_ok=tail_ok,
        crossings=tuple(crossings),
        alpha=float(alpha),
        gamma=float(gamma),
        epsilon=float(epsilon),
        checked_from=float(times[region][0]),
        checked_to=float(times[-1]),
    )
