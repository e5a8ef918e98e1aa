"""Built-in demonstration systems and their end-to-end pipelines.

Four ready-made setups exercise the whole library and are exposed through
the command line under the ids 6.1 to 6.4:

* ``6.1`` - a decomposable vector function driven by the filtered logistic
  source, with a tail large enough at the origin to defeat recurrence-with-
  separation for the combined signal.
* ``6.2`` - the sequence analogue built directly on the logistic orbit.
* ``6.3`` - a two-dimensional delay system forced by the 6.1 construction,
  simulated twice (full forcing vs recurrent part) and checked against the
  exponential convergence envelope.
* ``6.4`` - a two-dimensional discrete system forced by the 6.2 sequence,
  checked against the geometric envelope.  Its measurement window sits deep
  in the tail (index 4000 on), where the slowly decaying forcing difference
  is small enough for the tight difference targets to be meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .chaos import (DEFAULT_BURN_IN, DEFAULT_SEED, ExponentialFilter, GridFunction, Series,
                    VectorSequence, convolve_exponential, logistic_orbit, row_norms,
                    settling_positions)
from .constructs import (PSI_SCALE, DecompositionTriple, build_function_triple,
                         build_sequence_triple, function_tail, non_unpredictability_witness,
                         sequence_tail, WitnessReport)
from .delay import (DelayConvergenceReport, DelaySystemSpec, ProofConstants, _exact_ratio,
                    constant_history, convergence_check, integrate_mos, proof_constants,
                    tail_start)
from .detectors import (FUNCTION_HORIZON, SCAN_DELTA, SCAN_EPSILON0, SCAN_WINDOW,
                        SEQUENCE_HORIZON, DecayReport, UnpredictabilityEvidence,
                        collect_evidence, decay_test, evidence_for_function, verify_evidence)
from .discrete import (DiscreteConvergenceReport, DiscreteSystemSpec, GronwallEnvelope,
                       bounded_orbit, convergence_check_discrete, gamma_ceiling,
                       gronwall_envelope, sum_depth)
from .errors import ArgumentError, DomainError
from .nonlinearity import AssumptionReport, Nonlinearity, check_assumptions

EXAMPLE_IDS = ("6.1", "6.2", "6.3", "6.4")

DELAY_TAU = 0.2
DELAY_STEPS_PER_TAU = 32
# what |phi - psi| may exceed the convergence envelope by, in the delay and discrete demos
DELAY_ENVELOPE_SLACK = 1e-6
DISCRETE_ENVELOPE_SLACK = 1e-9
FUNCTION_PSI_SUP = math.sqrt(5.0) / 2.0
SEQUENCE_PSI_SUP = math.sqrt(17.0) / 4.0
SEQUENCE_LADDER = (0.5, 0.02, 1e-3, 1e-4)  # the rungs of 6.2's tail decay
SEQUENCE_CSV_ROWS = 2001  # rows of the 6.2 triple, each part written to its CSV
SEQUENCE_TAIL_FLAT = 28   # 6.2's tail is (2/(1 + i^2), +0.0) from this index on
DISCRETE_SUM_TOL = 1e-10  # of 6.4's sum check, whose truncation depth its window must exceed
# smallest near-return shift of the function scans, past the trivial grid-step returns
FUNCTION_MIN_SHIFT = 1.0
# half-grid nodes per evaluation of the delay demo's forcing
HALF_GRID_CHUNK = 8192
TAIL_NEVER_QUIET = "the tail never drops below gamma*epsilon inside the window"
# the most rows (grid nodes, orbit iterates) one run may compute
MAX_ROWS = 10 ** 7


def check_rows(rows: float, names: tuple, detail: str = "") -> None:
    """Refuse, before any work, a run of more than ``MAX_ROWS`` rows; ``names`` are the
    arguments its size grows with, the most to blame first."""
    if rows > MAX_ROWS:
        raise ArgumentError(names, f"the run would compute over {MAX_ROWS:,} rows{detail}")


def delay_step(tau: float, step: float | None) -> float:
    return tau / DELAY_STEPS_PER_TAU if step is None else step


def steps_per_unit(span: float, step: float | None, what: str) -> float:
    """Grid nodes per time unit; ``step`` must divide ``span`` (None: the delay default)."""
    try:
        return _exact_ratio(span, delay_step(span, step), what) / span
    except DomainError as exc:
        raise ArgumentError("step", str(exc)) from None


def delay_demo_matrix() -> np.ndarray:
    return np.array([[1.0, -3.0], [5.0, -5.0]])


def delay_demo_nonlinearity() -> Nonlinearity:
    def f(x):
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        out[..., 0] = np.arctan(x[..., 1]) / 6.0
        out[..., 1] = (0.5 * math.pi - np.arctan(x[..., 0])) / 12.0
        return out
    return Nonlinearity(f, bound=math.pi * math.sqrt(2.0) / 12.0, lipschitz=1.0 / 6.0,
                        name="arctan_arccot")


def discrete_demo_matrix() -> np.ndarray:
    return np.array([[0.25, -0.25], [0.5, 0.125]])


def discrete_demo_nonlinearity() -> Nonlinearity:
    def g(w):
        w = np.asarray(w, dtype=float)
        out = np.empty_like(w)
        out[..., 0] = np.sin(w[..., 0]) / 5.0
        out[..., 1] = np.cos(2.0 * w[..., 1]) / 10.0
        return out
    return Nonlinearity(g, bound=1.0 / math.sqrt(20.0), lipschitz=0.2, name="sin_cos")


def tanh_nonlinearity(dim: int, scale: float) -> Nonlinearity:
    def f(x):
        return scale * np.tanh(np.asarray(x, dtype=float))
    return Nonlinearity(f, bound=scale * math.sqrt(dim), lipschitz=scale, name="tanh")


def _planar(make):
    """Factory for a demo nonlinearity that acts on two components only."""
    def factory(dim: int, scale: float) -> Nonlinearity:
        if dim != 2:
            raise DomainError(f"nonlinearity acts on 2 components, not {dim}")
        return make()
    return factory


# name -> factory(dim, scale); ``scale`` applies to tanh only
NONLINEARITIES = {
    "arctan_arccot": _planar(delay_demo_nonlinearity),
    "sin_cos": _planar(discrete_demo_nonlinearity),
    "zero": lambda dim, scale: Nonlinearity.zero(dim),
    "tanh": tanh_nonlinearity,
}


def source_orbit(seed: float = DEFAULT_SEED, burn_in: int = DEFAULT_BURN_IN,
                 length: int = 1000, base_index: int = 0) -> Series:
    """Logistic orbit rebased so its window starts at ``base_index``."""
    return replace(logistic_orbit(seed, burn_in, length), t_start=int(base_index))


def function_source(seed: float, burn_in: int, t_lo: float, t_hi: float) -> ExponentialFilter:
    """Filtered source whose usable window covers [t_lo, t_hi]."""
    base = math.floor(t_lo) - 20
    length = math.ceil(t_hi) - base + 1
    orbit = source_orbit(seed, burn_in, length, base)
    return ExponentialFilter.from_orbit(orbit, decay=2.0)


def recurrent_forcing(filt: ExponentialFilter):
    """Vectorized callable for the recurrent forcing (2h, h)."""
    def psi(t):
        h = filt.eval(t)
        return np.stack([2.0 * h, h], axis=-1)
    return psi


def combined_forcing(filt: ExponentialFilter):
    """Vectorized callable for the full forcing psi + tail."""
    psi = recurrent_forcing(filt)

    def phi(t):
        return psi(t) + function_tail(t)
    return phi


# ---------------------------------------------------------------------------
# 6.1 / 6.2: the construct demos


@dataclass(frozen=True)
class ConstructDemo:
    """Triple plus the standard checks run on it."""

    triple: DecompositionTriple  # the written rows: all of 6.1's, 6.2's first SEQUENCE_CSV_ROWS
    witness: WitnessReport
    psi_sup: float
    psi_sup_bound: float
    decay: DecayReport
    evidence: UnpredictabilityEvidence
    evidence_verified: bool
    filt: ExponentialFilter | None = None
    orbit: Series | None = None


def run_function_demo(seed: float = DEFAULT_SEED, burn_in: int = DEFAULT_BURN_IN,
                      t_lo: float = -20.0, t_hi: float = 180.0, step: float = 0.05,
                      horizon: float = FUNCTION_HORIZON) -> ConstructDemo:
    """Build the 6.1 function triple on [t_lo, t_hi] and run its checks.

    The recurrence scan compares a span past the decaying bump, where the
    combined signal is indistinguishable from its recurrent part.
    """
    # the filtered source spans t_hi - t_lo plus a 21-unit warm-up, 1 / step nodes a unit
    check_rows((t_hi - t_lo + 21) * steps_per_unit(1.0, step, "unit interval") + burn_in,
               ("step", "burn_in", "t_lo", "t_hi"))
    filt = function_source(seed, burn_in, t_lo, t_hi)
    full = convolve_exponential(filt.orbit, decay=2.0, step=step)
    h = full.restrict(t_lo, t_hi)
    triple = build_function_triple(h)
    witness = non_unpredictability_witness(triple, FUNCTION_PSI_SUP)
    decay = decay_test(triple.theta, (0.5, 1e-2, 1e-4, 1e-6))
    span_lo = min(max(t_lo, 0.0) + 30.0, t_hi - 10.0)
    span = (span_lo, span_lo + 5.0)
    try:
        evidence = evidence_for_function(triple.phi, span, ladder=(0.5, 0.3, 0.2),
                                         epsilon0=0.2, delta=SCAN_DELTA, horizon=horizon,
                                         min_shift=FUNCTION_MIN_SHIFT)
    except ArgumentError as exc:
        # the span, delta and min_shift are fixed here, and ``step`` sets the grid
        raise ArgumentError("horizon" if "horizon" in exc.names else "step",
                            exc.args[1]) from None
    return ConstructDemo(triple, witness, triple.psi.sup_norm(), FUNCTION_PSI_SUP,
                         decay, evidence, verify_evidence(triple.phi, evidence), filt=filt)


def run_sequence_demo(seed: float = DEFAULT_SEED, burn_in: int = DEFAULT_BURN_IN,
                      horizon: int = SEQUENCE_HORIZON, window: int = SCAN_WINDOW,
                      epsilon0: float = SCAN_EPSILON0) -> ConstructDemo:
    """Scan the 6.2 orbit for psi's recurrence, build the triple on its written rows; run
    the checks.  psi = kappa * ``PSI_SCALE`` is not built over the window: its scans read
    kappa as the key of psi's rows (see ``detectors``).

    The tail's checks follow from its closed form and hold at every index, not only in
    the window: its computed row norms never increase.  Rows 0 to ``SEQUENCE_TAIL_FLAT``
    are checked here; past it the second component is +0.0 and a norm is sqrt(fl(x^2)) of
    x = 2/(1 + i^2), each step correctly rounded and monotone.  So the witness's largest
    norm is row 0's, the decay profile is the norm at each sampled row, and crossings fall
    on the rows up to the first sample below the last rung.  psi's sup is the norm of
    (kappa, kappa/4), which increases with kappa >= 0, at the largest kappa.
    """
    check_rows(horizon + window + burn_in, ("horizon", "burn_in", "window"))
    flat = row_norms(sequence_tail(np.arange(SEQUENCE_TAIL_FLAT + 1.0)))
    if np.any(flat[1:] > flat[:-1]):
        raise DomainError(f"the 6.2 tail's norms increase below index {SEQUENCE_TAIL_FLAT}")
    orbit = source_orbit(seed, burn_in, horizon + window + 2)
    rows, kappa = len(orbit), float(orbit.values.max())
    psi_sup = float(row_norms(kappa * np.array([PSI_SCALE]))[0])
    stride = max(1, rows // 512)
    profile = row_norms(sequence_tail(np.arange(0.0, rows, stride)))
    (past,) = np.nonzero(profile < SEQUENCE_LADDER[-1])
    head = sequence_tail(np.arange(stride * past[0] + 1.0 if past.size else rows))
    decay = replace(decay_test(VectorSequence(0, head), SEQUENCE_LADDER),
                    monotone_tail_sup=tuple(profile.tolist()))
    triple = build_sequence_triple(replace(orbit, values=orbit.values[:SEQUENCE_CSV_ROWS]))
    witness = replace(non_unpredictability_witness(triple, SEQUENCE_PSI_SUP),
                      scan_end=float(orbit.t_end))
    evidence = collect_evidence(orbit, window, epsilon0, horizon, PSI_SCALE)
    return ConstructDemo(triple, witness, psi_sup, SEQUENCE_PSI_SUP, decay, evidence,
                         verify_evidence(orbit, evidence, PSI_SCALE), orbit=orbit)


# ---------------------------------------------------------------------------
# 6.3: the delay demo


@dataclass(frozen=True)
class DelayDemo:
    """Both forced solutions of the delay demo plus every derived quantity."""

    spec_combined: DelaySystemSpec
    assumptions: AssumptionReport
    proof: ProofConstants
    m_phi: float
    m_psi: float
    gamma: float
    epsilon: float
    alpha: float
    phi_solution: Series
    psi_solution: Series
    theta_grid: Series
    report: DelayConvergenceReport


def _forcing_samples(spec_psi: DelaySystemSpec, history: Series, t_end: float,
                     step: float) -> tuple[np.ndarray, list]:
    """Forcings phi = psi + tail and psi on the integrator's half grid; their sups on its nodes.

    Both are sampled from one evaluation of ``spec_psi.forcing`` per node, in
    place and a chunk at a time so the temporaries stay small.
    """
    n_half = 2 * round((t_end - history.t_end) / step) + 1
    forcing = np.empty((2, n_half, 2))
    phi_half, psi_half = forcing
    for lo in range(0, n_half, HALF_GRID_CHUNK):
        t = history.t_end + 0.5 * step * np.arange(lo, min(lo + HALF_GRID_CHUNK, n_half))
        psi = psi_half[lo:lo + t.size]
        psi[:] = spec_psi.forcing(t)
        np.add(psi, function_tail(t), out=phi_half[lo:lo + t.size])
    return forcing, [float(row_norms(run[::2]).max()) for run in forcing]


def run_delay_demo(step: float | None = None, window: tuple = (0.0, 200.0),
                   sim_burn_in: float = 30.0, seed: float = DEFAULT_SEED,
                   orbit_burn_in: int = DEFAULT_BURN_IN, epsilon: float = 1e-3,
                   tau: float = DELAY_TAU) -> DelayDemo:
    """Simulate the delay demo under full and recurrent forcing and compare.

    Both runs start from the same zero history ``sim_burn_in`` time units
    before the window, so each trajectory lands on its bounded solution
    before measurements begin, and one ``integrate_mos`` call advances them
    together.  ``step`` defaults to ``tau / 32``.  Before integrating, alpha is
    derived from the tail and ``epsilon``, which is refused when alpha falls
    less than one delay after the window start; the window is refused when it
    ends before the tail check's start (``tail_start``).
    """
    w0, w1 = float(window[0]), float(window[1])
    # the integrator's nodes and the source orbit over the window, its burn-in and warm-ups
    span = w1 - w0 + max(sim_burn_in, tau) + tau + 22
    check_rows(span * (1 + steps_per_unit(tau, step, "delay")) + orbit_burn_in,
               ("step", "tau", "window", "sim_burn_in", "orbit_burn_in"))
    step = delay_step(tau, step)
    t_sim0 = w0 - max(sim_burn_in, tau)
    filt = function_source(seed, orbit_burn_in, t_sim0 - tau - 1.0, w1 + 1.0)

    a = delay_demo_matrix()
    f = delay_demo_nonlinearity()
    phi_fn = combined_forcing(filt)
    psi_fn = recurrent_forcing(filt)
    spec_phi = DelaySystemSpec(a, tau, f, phi_fn)
    spec_psi = DelaySystemSpec(a, tau, f, psi_fn)

    assumptions = check_assumptions(spec_phi)
    if not assumptions.contracts:
        raise ArgumentError("tau", f"gives the contraction margin A3 = {assumptions.margin:g}; "
                                   "the delay demo needs it positive")

    n_burn = math.ceil((w0 - t_sim0) / step - 1e-9)
    t0 = w0 - n_burn * step
    history = constant_history(np.zeros(2), t0, tau, step)
    forcing, (m_phi, m_psi) = _forcing_samples(spec_psi, history, w1, step)
    proof = proof_constants(spec_phi, m_phi, m_psi)
    gamma = 0.5 / (proof.k1 + proof.k2)

    # the window of the integrator's grid, restricted as its trajectories will be
    grid = GridFunction(history.t_end, step, np.broadcast_to(0.0, (forcing.shape[1] // 2 + 1, 1)))
    grid = grid.restrict(w0, w1)
    times = grid.times()
    theta_grid = GridFunction(grid.t_start, step, function_tail(times))
    (quiet,) = settling_positions(theta_grid.norms(), [gamma * epsilon])
    if quiet is None:
        raise ArgumentError(("epsilon", "window"), TAIL_NEVER_QUIET)
    alpha = float(times[quiet])
    if quiet < round(tau / step):  # the Picard check takes one delay of history before alpha
        raise ArgumentError(("epsilon", "window"), f"puts alpha at {alpha!r}, less than one "
                                                   f"delay {tau!r} after the window start {w0!r}")
    start = tail_start(spec_phi, alpha, gamma, epsilon)
    if not times[-1] >= start:  # the tail check needs a node at or past its start
        raise ArgumentError(("window", "epsilon"), f"ends at {float(times[-1])!r}, before the "
                                                   f"tail check starts at {start!r}")

    runs = integrate_mos(spec_psi, history, w1, step, forcing)
    del forcing  # freed before the checks run
    phi_solution, psi_solution = (x.restrict(w0, w1) for x in runs)
    report = convergence_check(phi_solution, psi_solution, spec_phi, proof,
                               alpha, gamma, epsilon, slack=DELAY_ENVELOPE_SLACK,
                               ladder=(1e-1, 1e-2, 1e-3))
    return DelayDemo(spec_phi, assumptions, proof, m_phi, m_psi, gamma, epsilon, alpha,
                     phi_solution, psi_solution, theta_grid, report)


# ---------------------------------------------------------------------------
# 6.4: the discrete demo


@dataclass(frozen=True)
class DiscreteDemo:
    """Both forced orbits of the discrete demo plus every derived quantity."""

    spec_combined: DiscreteSystemSpec
    assumptions: AssumptionReport
    m_phi: float
    m_psi: float
    gamma: float
    epsilon: float
    alpha: int
    phi_orbit: Series
    psi_orbit: Series
    envelope: GronwallEnvelope
    report: DiscreteConvergenceReport


def run_discrete_demo(window: tuple = (4000, 4400), tol: float = 1e-9,
                      seed: float = DEFAULT_SEED, orbit_burn_in: int = DEFAULT_BURN_IN,
                      epsilon: float = 1e-5) -> DiscreteDemo:
    """Simulate the discrete demo under full and recurrent forcing and compare; refuse
    a window within the sum check's truncation depth before either orbit is computed."""
    check_rows(window[1] + orbit_burn_in, ("window", "orbit_burn_in"))
    i0, i1 = int(window[0]), int(window[1])
    if i0 < 1:
        raise ArgumentError("window", f"must start past index 0, got {window!r}")
    orbit = source_orbit(seed, orbit_burn_in, i1 + 2)
    triple = build_sequence_triple(orbit)

    b = discrete_demo_matrix()
    g = discrete_demo_nonlinearity()
    spec_phi = DiscreteSystemSpec(b, g, triple.phi)
    spec_psi = DiscreteSystemSpec(b, g, triple.psi)
    assumptions = check_assumptions(spec_phi)

    m_phi = triple.phi.sup_norm()
    m_psi = triple.psi.sup_norm()
    gamma = 0.5 * gamma_ceiling(spec_phi, m_phi, m_psi)

    (quiet,) = settling_positions(triple.theta.restrict(i0, i1).norms(), [gamma * epsilon])
    if quiet is None:
        raise ArgumentError(("epsilon", "window"), TAIL_NEVER_QUIET)
    alpha = i0 + quiet
    depth = sum_depth(spec_phi, m_phi, DISCRETE_SUM_TOL)
    if i1 - i0 <= depth:
        raise ArgumentError("window", f"spans {i1 - i0} steps; the sum check needs over {depth}")

    phi_orbit = bounded_orbit(spec_phi, (i0, i1), tol)
    psi_orbit = bounded_orbit(spec_psi, (i0, i1), tol)
    envelope = gronwall_envelope(spec_phi, m_phi, m_psi, alpha, gamma, epsilon, (i0, i1))
    report = convergence_check_discrete(phi_orbit, psi_orbit, envelope, alpha,
                                        slack=DISCRETE_ENVELOPE_SLACK)
    return DiscreteDemo(spec_phi, assumptions,
                        m_phi, m_psi, gamma, epsilon, alpha,
                        phi_orbit, psi_orbit, envelope, report)
