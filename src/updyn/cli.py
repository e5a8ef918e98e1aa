"""Command-line front end: reproduce built-in demos, run configs, scan CSVs.

Exit status: 0 on success, 1 when a reported check fails (stderr names each
with its compared value and tolerance), 2 on usage or configuration errors.
All outputs are deterministic for a fixed configuration, so repeated runs
produce byte-identical files.  Every check record comes from a builder in
``report``.

``reproduce``, ``run`` and ``detect`` go through one table, ``DEMOS``, and one
function, ``_execute``; the parser takes its flags from the table, and
``validate_config`` checks a config against it.  A flag or config field an
entry does not take exits 2, named.  A given one reaches the entry's ``run``
(defaults live there) once its type and range are checked, and so is the output
directory, which must not be a file.  ``run`` refuses a run past
``catalog.MAX_ROWS`` rows before any work, and a routine refuses an argument
against its own rules when it starts; either ``ArgumentError`` exits 2 naming
the flag or field that set the argument.  ``run`` computes every check and
writes nothing; only then does ``_execute`` create the output directory and
write the entry's CSV files, in one pass, and its JSON report.  So a refused
run leaves no output behind.

Importing this module loads numpy and updyn only, and no command loads scipy
nor numpy.random: the function-demo tail, the quadrature oracle at its fixed
times and exp(A h) in the delay system are numpy code.
"""

from __future__ import annotations

import argparse
import json
import math
import reprlib
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import catalog
from .chaos import (GridFunction, Series, VectorSequence, logistic_residual, quadrature_oracle,
                    row_norms)
from .delay import DelaySystemSpec, bounded_solution, burn_in_time, picard_apply
from .detectors import (FUNCTION_HORIZON, SCAN_DELTA, SCAN_EPSILON0, SCAN_WINDOW,
                        SEQUENCE_HORIZON, collect_evidence, evidence_for_function,
                        verify_evidence)
from .discrete import DiscreteSystemSpec, bounded_orbit, burn_in_length, orbit_sum_residual
from .errors import ArgumentError, ConfigError, DomainError, StabilityError, UpdynError
from .nonlinearity import check_assumptions
from .report import (CheckRecord, at_most, failing_checks, jsonable, not_applicable, passes,
                     read_series_csv, within, write_function_csv, write_json_report,
                     write_sequence_csv)

SQRT5_OVER_4 = math.sqrt(5.0) / 4.0
EXACT_AMPLITUDE = (4.0 + math.sqrt(10.0)) / math.sqrt(6.0)
REPORT_DIR = "updyn-report"
# 6.1's oracle times lo + (hi - lo) * u: u the first 10 doubles of np.random.default_rng(2027)
ORACLE_UNIFORMS = np.array([0.008005460405767217, 0.3858825508850847, 0.08252061560863677,
                            0.4979015857627619, 0.4487456334564246, 0.7054283434253289,
                            0.2977884872004949, 0.6212646905621997, 0.5609023430164476,
                            0.08984774982329768])


class Outcome(NamedTuple):
    """What the ``run`` of a ``DEMOS`` entry computed, for ``_execute`` to write."""

    checks: list
    evidence: dict
    counters: dict
    # (write, axis, {name: values}): ``<prefix>_<name>.csv`` in one pass of ``write``,
    # the report function through which perfbench times the CSV layer
    csvs: tuple | None = None
    echo: dict = {}     # what the run adds to the report's echo of its inputs


# ---------------------------------------------------------------------------
# runs of the built-in demos


def _evidence_check(evidence, verified: bool, counted: bool = False) -> CheckRecord:
    """``evidence_verified``, with the scan's counts when ``counted``; not applicable, with
    them, when the scan recorded no near return and no separation: nothing to verify (D18)."""
    counts = {"rungs_found": sum(r.found for r in evidence.return_times),
              "rungs": len(evidence.return_times), "separations": len(evidence.separation_times)}
    if not (counts["rungs_found"] or counts["separations"]):
        return not_applicable("evidence_verified", counts)
    return passes("evidence_verified", verified, counts if counted else None)


def _construct_checks(demo, tail_decay: CheckRecord) -> list:
    """The checks 6.1 and 6.2 share, around their own ``tail_decay`` check."""
    w = demo.witness
    return [
        at_most("psi_sup_bound", {"psi_sup": demo.psi_sup, "bound": demo.psi_sup_bound},
                {"slack": 1e-12}, limit=demo.psi_sup_bound + 1e-12),
        at_most("decomposition_exact", {"residual": demo.triple.decomposition_residual()},
                {"residual": 1e-14}),
        passes("witness", w.found and w.location == 0,
               {"location": w.location, "theta_norm": w.tail_norm, "threshold": w.threshold,
                "margin": w.margin}),
        tail_decay,
        _evidence_check(demo.evidence, demo.evidence_verified)]


def _construct_outcome(demo, checks: list, counters: dict, write, **more) -> Outcome:
    """6.1's or 6.2's evidence, and CSVs of the ``more`` arrays and the triple's parts."""
    parts = {part: getattr(demo.triple, part).values for part in ("phi", "psi", "theta")}
    return Outcome(checks, {"scan": jsonable(demo.evidence), "decay": jsonable(demo.decay),
                            "witness": jsonable(demo.witness)},
                   counters, (write, demo.triple.phi.times(), {**more, **parts}))


def _function_demo(**inputs) -> Outcome:
    demo = catalog.run_function_demo(**inputs)
    h = demo.triple.psi.values[:, 1]
    h_sup = float(np.abs(h).max())
    lo, hi = demo.filt.t_start + 40.0, demo.filt.t_end
    worst = 0.0
    for t in lo + (hi - lo) * ORACLE_UNIFORMS:
        worst = max(worst, abs(float(demo.filt.eval(t)) - quadrature_oracle(demo.filt, t)))
    crossing = demo.decay.crossing(1e-6)
    checks = [
        at_most("h_sup_bound", {"max_abs_h": h_sup}, {"bound": 0.5, "slack": 1e-12},
                limit=0.5 + 1e-12),
        at_most("quadrature_oracle", {"max_abs_gap": worst, "points": 10}, {"gap": 1e-10}),
        *_construct_checks(demo, passes(
            "tail_decay", crossing is not None and 14.0 <= crossing <= 15.5,
            {"crossing_time": crossing, "rung": 1e-6}, {"expected_range": [14.0, 15.5]}))]
    counters = {"grid_nodes": len(h), "oracle_points": 10,
                "scanned_shifts": demo.evidence.scanned_horizon}
    return _construct_outcome(demo, checks, counters, write_function_csv, h=h)


def _sequence_demo(**inputs) -> Outcome:
    demo = catalog.run_sequence_demo(**inputs)
    crossing = demo.decay.crossing(0.02)
    residual = logistic_residual(demo.orbit)
    tail_decay = passes("tail_decay", crossing == 10, {"crossing_index": crossing, "rung": 0.02},
                        {"expected": 10})
    checks = [*_construct_checks(demo, tail_decay),
              at_most("orbit_recurrence", {"max_residual": residual}, {"residual": 4e-16})]
    counters = {"orbit_length": len(demo.orbit), "scanned_shifts": demo.evidence.scanned_horizon}
    return _construct_outcome(demo, checks, counters, write_sequence_csv)


def _margin_check(letter: str, assumptions, expected: float | None = None) -> CheckRecord:
    """The margin check of a delay ("A") or discrete ("B") system, with its other verdicts:
    positive, or within 1e-9 of the ``expected`` margin of a demo system."""
    values = {f"{letter}3_margin": assumptions.margin, f"{letter}1_pass": assumptions.spot.bound_ok,
              f"{letter}2_pass": assumptions.spot.lipschitz_ok}
    if expected is None:
        return passes("contraction_margin", assumptions.contracts, values, {"positive": 0.0})
    return within("contraction_margin", values, {"gap": 1e-9}, expected)


def _stability_check(spec, expected: float | None = None) -> CheckRecord:
    """A delay system's N and lambda: exact, with N within 1e-9 of ``expected`` (a demo's)."""
    try:
        c = spec.constants
    except StabilityError as exc:  # only a given matrix can have none
        raise ArgumentError("matrix", f"has no proven exponential stability bound: {exc}") from None
    values = {"amplitude": c.amplitude, "decay_rate": c.decay_rate, "mode": c.mode}
    if expected is None:
        # a given matrix has N and lambda only once they are proven, in either mode
        return passes("stability_amplitude", True, values)
    return passes("stability_amplitude", c.mode == "exact" and abs(c.amplitude - expected) <= 1e-9,
                  values, {"amplitude_gap": 1e-9})


def _residual_check(spec, forcing: Series, orbit: Series) -> CheckRecord:
    """Largest gap between an orbit's steps and the recurrence that defines them."""
    w = orbit.values
    phi = forcing.restrict(orbit.t_start, orbit.t_end - 1).values
    resid = float(np.abs(w[1:] - (w[:-1] @ spec.matrix.T + spec.nonlinearity(w[:-1]) + phi)).max())
    return at_most("recurrence_residual", {"max_residual": resid}, {"residual": 4e-15})


def _envelope_evidence(demo) -> dict:
    return {"alpha": demo.alpha, "gamma": demo.gamma, "epsilon": demo.epsilon,
            "m_phi": demo.m_phi, "m_psi": demo.m_psi,
            "crossings": jsonable(demo.report.crossings)}


def _delay_demo(**inputs) -> Outcome:
    demo = catalog.run_delay_demo(**inputs)
    eigs = np.linalg.eigvals(demo.spec.matrix)
    expected = np.array([-2.0 + 1j * math.sqrt(6.0), -2.0 - 1j * math.sqrt(6.0)])
    gap = float(max(min(abs(e - expected[0]), abs(e - expected[1])) for e in eigs))
    report, proof = demo.report, demo.proof
    phi, psi = demo.phi_solution, demo.psi_solution
    times = phi.times()
    diff = row_norms(phi.values - psi.values)
    tail_quarter = float(diff[times >= times[0] + 0.75 * (times[-1] - times[0])].max())
    candidate = GridFunction(phi.t_start, phi.step, phi.values - psi.values)
    image = picard_apply(demo.spec, psi, demo.theta_grid, candidate, demo.alpha)
    fp_gap = float(row_norms(image.values - candidate.values).max())
    checks = [
        passes("eigenvalues", gap <= 1e-9, {"eigenvalues": [[e.real, e.imag] for e in eigs]},
               {"gap": 1e-9}),
        _stability_check(demo.spec, EXACT_AMPLITUDE),
        _margin_check("A", demo.assumptions),
        passes("envelope", report.envelope_ok,
               {"max_excess": report.max_excess, "alpha": report.alpha, "k1": proof.k1,
                "k2": proof.k2, "m0": proof.m0}, {"slack": catalog.DELAY_ENVELOPE_SLACK}),
        at_most("tail_sup_final_quarter", {"tail_sup": tail_quarter}, {"bound": 1e-3},
                strict=True),
        passes("tail_past_predicted", report.tail_ok,
               {"tail_sup": report.tail_sup, "tail_start": report.tail_start},
               {"epsilon": demo.epsilon}),
        at_most("picard_fixed_point", {"max_gap": fp_gap}, {"gap": 1e-6})]
    evidence = {**_envelope_evidence(demo), "proof_constants": jsonable(demo.proof)}
    counters = {"grid_nodes": len(times),
                "rk4_steps": int(round((times[-1] - times[0]) / phi.step))}
    # once the tail is below an ulp, psi's rows equal phi's and reuse their text
    return Outcome(checks, evidence, counters, (write_function_csv, times, {
        "phi_solution": phi.values, "psi_solution": psi.values, "difference": diff}))


def _discrete_demo(**inputs) -> Outcome:
    demo = catalog.run_discrete_demo(**inputs)
    report, norm_b = demo.report, demo.spec.norm_b
    drop = next((c for c in report.crossings if c[0] == 1e-6), None)
    sum_gap = orbit_sum_residual(demo.spec, demo.phi_forcing, demo.phi_orbit,
                                 catalog.DISCRETE_SUM_TOL)
    checks = [
        within("spectral_norm", {"spectral_norm": norm_b, "expected": SQRT5_OVER_4},
               {"gap": 1e-9}, SQRT5_OVER_4),
        _margin_check("B", demo.assumptions, expected=1.0 - SQRT5_OVER_4 - 0.2),
        passes("envelope", report.envelope_ok,
               {"max_excess": report.max_excess, "alpha": report.alpha},
               {"slack": catalog.DISCRETE_ENVELOPE_SLACK}),
        at_most("difference_drop", {"crossing_index": None if drop is None else drop[1],
                                    "rung": 1e-6, "alpha": demo.alpha},
                {"within": 60}, limit=demo.alpha + 60),
        _residual_check(demo.spec, demo.phi_forcing, demo.phi_orbit),
        at_most("sum_representation", {"max_gap": sum_gap}, {"gap": 1e-9})]
    idx = demo.phi_orbit.times()
    phi, psi = demo.phi_orbit.values, demo.psi_orbit.values
    evidence = {**_envelope_evidence(demo),
                "envelope_persistent_level": demo.envelope.persistent_level,
                "envelope_decay_base": demo.envelope.decay_base}
    counters = {"window": [int(idx[0]), int(idx[-1])], "orbit_steps": len(idx) - 1}
    return Outcome(checks, evidence, counters, (write_sequence_csv, idx, {
        "phi_orbit": phi, "psi_orbit": psi, "difference": row_norms(phi - psi)}))


# ---------------------------------------------------------------------------
# runs outside the catalog: simulations under zero or constant forcing, CSV scans


def _system(default: np.ndarray, matrix, nonlinearity: str, scale: float | None, forcing: str,
            value) -> tuple:
    """A ``run`` config's matrix (``default`` when none is given), ``Nonlinearity`` and
    constant forcing vector (zero, or ``value`` given as 1 or ``dim`` numbers); a refusal
    names the first fault of scale, then the matrix, then value."""
    matrix = default if matrix is None else np.asarray(matrix, dtype=float)
    dim = matrix.shape[0]
    if scale is not None and nonlinearity != "tanh":
        raise ArgumentError("scale", f"applies to the tanh nonlinearity only, not {nonlinearity!r}")
    try:
        nl = catalog.NONLINEARITIES[nonlinearity](dim, 1.0 if scale is None else scale)
    except DomainError as exc:
        # only a given matrix can be other than 2x2, so the matrix is named
        raise ArgumentError("matrix", f"is {dim}x{dim}, but the {nonlinearity!r} {exc}; set "
                                      "system.nonlinearity.type to tanh or zero") from None
    if value is None:
        return matrix, nl, np.zeros(dim)
    if forcing == "zero":
        raise ArgumentError("value", "applies to constant forcing only")
    if len(value) not in (1, dim):
        raise ArgumentError("value", f"expected 1 or {dim} numbers for a {dim}x{dim} matrix, "
                                     f"got {len(value)}")
    v = np.broadcast_to(np.asarray(value, dtype=float), (dim,))
    with np.errstate(over="ignore"):
        if not math.isfinite(row_norms(v[None])[0]):
            raise ArgumentError("value", "is too large: its norm overflows")
    return matrix, nl, v


def _simulate_delay(forcing: str, value=None, matrix=None, nonlinearity: str = "arctan_arccot",
                    scale: float | None = None, tau: float = catalog.DELAY_TAU, window=None,
                    step: float | None = None, tol: float = 1e-8):
    """Check assumptions A1-A3 and, given a ``window``, simulate the bounded solution there
    with ``step`` (default ``tau / 32``) after a burn-in counted toward ``MAX_ROWS``."""
    per_unit = catalog.steps_per_unit(tau, step, "delay")
    a, nl, v = _system(catalog.delay_demo_matrix(), matrix, nonlinearity, scale, forcing, value)
    spec = DelaySystemSpec(a, tau, nl)
    stability = _stability_check(spec)  # first: the margin needs the N and lambda it may refuse
    assumptions = check_assumptions(spec)
    checks = [_margin_check("A", assumptions), stability]
    if window is None or not assumptions.contracts:
        return Outcome([*checks, not_applicable("solution_sup_bound")], {}, {"simulated": False})
    burn = burn_in_time(spec, tol)
    catalog.check_rows((burn + window[1] - window[0] + tau) * per_unit,
                       ("window", "matrix", "tol", "step", "tau"),
                       f", {burn * per_unit:.3g} of them burn-in")
    traj = bounded_solution(spec, lambda t: np.broadcast_to(v, t.shape + v.shape),
                            tuple(window), catalog.delay_step(tau, step), tol=tol)
    c = spec.constants
    bound = c.amplitude * (nl.bound + row_norms(v[None])[0]) / c.decay_rate
    checks.append(at_most("solution_sup_bound", {"sup": traj.sup_norm(), "bound": bound},
                          {"tol": tol}, limit=bound + tol))
    return Outcome(checks, {}, {"simulated": True, "grid_nodes": len(traj)},
                   (write_function_csv, traj.times(), {"solution": traj.values}))


def _simulate_discrete(forcing: str, value=None, matrix=None, nonlinearity: str = "sin_cos",
                       scale: float | None = None, window=(0, 400), tol: float = 1e-9):
    """Check assumptions B1-B3 and, if they hold, compute the bounded orbit on ``window``
    after a burn-in sized from the constant forcing's norm, counted toward ``MAX_ROWS``."""
    b, nl, v = _system(catalog.discrete_demo_matrix(), matrix, nonlinearity, scale, forcing, value)
    spec = DiscreteSystemSpec(b, nl)
    norm = at_most("spectral_norm", {"spectral_norm": spec.norm_b}, {"below": 1.0}, strict=True)
    assumptions = check_assumptions(spec)
    checks = [_margin_check("B", assumptions), norm]
    if not assumptions.contracts:
        return Outcome([*checks, not_applicable("recurrence_residual")], {}, {"simulated": False})
    i0, i1 = int(window[0]), int(window[1])
    burn = burn_in_length(spec, float(row_norms(v[None])[0]), tol)
    catalog.check_rows(burn + i1 - i0, ("window", "matrix", "value", "scale", "tol"),
                       f", {burn:,} of them burn-in")
    phi = VectorSequence(i0 - burn, np.repeat(v[None], burn + i1 - i0, 0))
    orbit = bounded_orbit(spec, phi, (i0, i1), tol=tol)
    return Outcome([*checks, _residual_check(spec, phi, orbit)],
                   {}, {"simulated": True, "orbit_steps": len(orbit) - 1},
                   (write_sequence_csv, orbit.times(), {"orbit": orbit.values}))


def _scan_series(csv_path: str, horizon: float | None = None, epsilon0: float = SCAN_EPSILON0,
                 delta: float | None = None, window: int | None = None,
                 min_shift: float | None = None):
    """Scan a CSV series for near returns and separations.

    ``window`` is the number of indices a sequence CSV's near returns compare;
    a function CSV compares the span ``[t0, t0 + 20 * delta]`` and echoes it
    instead.  ``delta`` is the half-width of a function CSV's separation
    intervals and ``min_shift`` the smallest shift its near returns may use.
    ``horizon`` caps the shifts scanned.  The scans own the rules on these
    values; an argument they refuse is passed on under its keyword here (the
    span's as ``delta``), or, when no keyword blamed was given, the CSV is named.
    """
    try:
        kind, axis, values = read_series_csv(csv_path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read series: {exc}") from exc
    given = {kw for kw, value in (("horizon", horizon), ("window", window),
                                  ("min_shift", min_shift), ("delta", delta))
             if value is not None}
    delta = SCAN_DELTA if delta is None else delta
    echo = {"input": Path(csv_path).stem, "epsilon0": epsilon0, "delta": delta,
            "horizon": horizon}
    other, foreign = (("function", ("min_shift", "delta")) if kind == "sequence"
                      else ("sequence", ("window",)))
    foreign = tuple(kw for kw in foreign if kw in given)
    if foreign:
        raise ArgumentError(foreign, f"applies to {other} CSVs; {csv_path} is a {kind} CSV")
    try:
        if kind == "sequence":
            echo["window"] = window = SCAN_WINDOW if window is None else window
            data = VectorSequence(int(axis[0]), values)
            evidence = collect_evidence(data, window=window, epsilon0=epsilon0,
                                        horizon=SEQUENCE_HORIZON if horizon is None else horizon)
        else:
            data = GridFunction(float(axis[0]), float(axis[1] - axis[0]), values)
            min_shift = catalog.FUNCTION_MIN_SHIFT if min_shift is None else min_shift
            span = (data.t_start, data.t_start + 20 * delta)
            echo.update(min_shift=min_shift, span=span)
            evidence = evidence_for_function(
                data, span, epsilon0=epsilon0, delta=delta, min_shift=min_shift,
                horizon=FUNCTION_HORIZON if horizon is None else horizon)
    except ArgumentError as exc:
        blamed = tuple("delta" if kind == "function" and kw == "window" else kw
                       for kw in exc.names)
        if given.isdisjoint(blamed):
            raise ConfigError(f"{csv_path}: {exc.args[1]}") from None
        raise ArgumentError(blamed, exc.args[1]) from None
    return Outcome([_evidence_check(evidence, verify_evidence(data, evidence), counted=True)],
                   {"scan": jsonable(evidence)}, {"series_length": int(values.shape[0])},
                   echo=echo)


# ---------------------------------------------------------------------------
# the table of everything that runs, and the one path through it


class Input(NamedTuple):
    """One argument of an entry's ``run``: its CLI flag, its config field, its value's rule."""

    flag: str | None
    field: str | None
    rule: str


def _number(v) -> bool:  # a JSON number, not a bool, that is finite as a float
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


# rule -> (test of a value, what the test asks)
RULES = {
    "seed": (lambda v: _number(v) and 0.0 < v < 1.0, "a number in (0, 1)"),
    "positive": (lambda v: _number(v) and v >= sys.float_info.min, "a positive normal float"),
    "nonnegative": (lambda v: _number(v) and v >= 0.0, "a finite non-negative number"),
    "count": (lambda v: _number(v) and v >= 0 and v == int(v), "a non-negative integer"),
    "size": (lambda v: _number(v) and v >= 1 and v == int(v), "a positive integer"),
    "numbers": (lambda v: type(v) is list and all(map(_number, v)), "a list of finite numbers"),
    "span": (lambda v: RULES["numbers"][0](v) and len(v) == 2 and v[0] < v[1],
             "an increasing pair of numbers"),
    "indices": (lambda v: RULES["span"][0](v) and v == [int(x) for x in v],
                "an increasing pair of integers"),
    "matrix": (lambda v: type(v) is list and len(v) > 0
               and all(RULES["numbers"][0](row) and len(row) == len(v) for row in v),
               "a non-empty square list of number lists"),
    "text": (lambda v: type(v) is str, "a string"),
    "name": (lambda v: type(v) is str and not any(c in v for c in "/\\\0"),
             "a file name prefix, without '/', '\\' or NUL"),
    "nonlinearity": (lambda v: type(v) is str and v in catalog.NONLINEARITIES,
                     f"one of {', '.join(map(repr, catalog.NONLINEARITIES))}"),
}


@dataclass(frozen=True)
class Demo:
    """One entry of ``DEMOS``: its ``run``, which takes the inputs given (defaults live
    there), refuses a run too large before any work and writes nothing; what it accepts."""

    title: str
    run: Callable       # (**inputs) -> Outcome
    inputs: dict        # run keyword -> Input
    selects: dict       # config field -> the values that pick this entry (None: absent)
    label: str          # the report's "example" after a config run


SEED = Input("--seed", "source.seed", "seed")
BURN_IN = Input(None, "source.burn_in", "count")
STEP = Input("--step", "numeric.step", "positive")
TAU = Input(None, "system.tau", "positive")
EPSILON = Input(None, "numeric.epsilon", "positive")
SYSTEM = {"forcing": Input(None, "system.forcing.type", "text"),
          "matrix": Input(None, "system.matrix", "matrix"),
          "value": Input(None, "system.forcing.value", "numbers"),
          "nonlinearity": Input(None, "system.nonlinearity.type", "nonlinearity"),
          "scale": Input(None, "system.nonlinearity.scale", "positive"),
          "tol": Input(None, "numeric.tol", "positive")}

DEMOS = {
    "6.1": Demo("function demo on the filtered logistic source", _function_demo,
                {"seed": SEED, "burn_in": BURN_IN,
                 "horizon": Input("--horizon", "source.horizon", "positive"), "step": STEP},
                {"kind": ("construct",), "numeric.variant": ("function",)},
                "construct:function"),
    "6.2": Demo("sequence demo on the logistic orbit", _sequence_demo,
                {"seed": SEED, "burn_in": BURN_IN,
                 "horizon": Input("--horizon", "source.horizon", "size"),
                 "epsilon0": Input(None, "numeric.epsilon0", "positive")},
                {"kind": ("construct",), "numeric.variant": ("sequence", None)},
                "construct:sequence"),
    "6.3": Demo("delay system forced by the 6.1 construction", _delay_demo,
                {"seed": SEED, "orbit_burn_in": BURN_IN, "step": STEP, "tau": TAU,
                 "window": Input(None, "numeric.window", "span"), "epsilon": EPSILON,
                 "sim_burn_in": Input(None, "numeric.burn_in_time", "positive")},
                {"kind": ("delay",), "system.forcing.type": ("construct", None)}, "delay"),
    "6.4": Demo("discrete system forced by the 6.2 sequence", _discrete_demo,
                {"seed": SEED, "orbit_burn_in": BURN_IN,
                 "tol": Input("--tol", "numeric.tol", "positive"),
                 "window": Input(None, "numeric.window", "indices"), "epsilon": EPSILON},
                {"kind": ("discrete",), "system.forcing.type": ("construct", None)},
                "discrete"),
    "delay": Demo("delay system under zero or constant forcing", _simulate_delay,
                  {**SYSTEM, "tau": TAU, "window": Input(None, "numeric.window", "span"),
                   "step": Input(None, "numeric.step", "positive")},
                  {"kind": ("delay",), "system.forcing.type": ("zero", "constant")},
                  "delay"),
    "discrete": Demo("discrete system under zero or constant forcing", _simulate_discrete,
                     {**SYSTEM, "window": Input(None, "numeric.window", "indices")},
                     {"kind": ("discrete",), "system.forcing.type": ("zero", "constant")},
                     "discrete"),
    "detect": Demo("recurrence scan of a CSV series", _scan_series,
                   {"csv_path": Input("csv", "input_csv", "text"),
                    "horizon": Input("--horizon", "source.horizon", "positive"),
                    "epsilon0": Input("--epsilon0", "numeric.epsilon0", "positive"),
                    "delta": Input("--delta", "numeric.delta", "positive"),
                    "window": Input("--window", "numeric.compare_window", "size"),
                    "min_shift": Input("--min-shift", None, "nonnegative")},
                   {"kind": ("detect",)}, "detect"),
}


# the config fields run_config reads itself, each a string, and the rule of each
TEXT_FIELDS = {"label": "text", "input_csv": "text", "output.dir": "text",
               "output.prefix": "name"}
FIELDS = {*TEXT_FIELDS, *(name for demo in DEMOS.values() for name in
                          (*demo.selects, *(i.field for i in demo.inputs.values())) if name)}


def _named(name: str) -> str:
    return name if name.startswith("-") else f"config field '{name}'"


def _checked(rule: str, value, name: str):
    """``value`` once it passes ``rule``."""
    test, wanted = RULES[rule]
    if not test(value):
        raise ConfigError(f"{_named(name)}: must be {wanted}, got {reprlib.repr(value)}")
    return int(value) if rule in ("count", "size") else value


def _execute(key: str, given: dict, echo: dict, out_dir: tuple, prefix: str, label: str) -> int:
    """Run entry ``key`` of ``DEMOS`` on the ``given`` inputs; then write its outputs and report.

    ``given`` maps each flag (``--step``) or config field (``numeric.step``) that
    was set to its value; each must be an input of the entry or a field selecting it.
    A refused argument is named as the first of those blamed that was given.
    ``out_dir`` is the output directory's flag or field and the path it holds.
    """
    demo = DEMOS[key]
    keywords = {name: kw for kw, spec in demo.inputs.items() for name in spec[:2] if name}
    unknown = [name for name in given if name not in keywords and name not in demo.selects]
    if unknown:
        side = 0 if unknown[0].startswith("-") else 1
        takes = " ".join(spec[side] for spec in demo.inputs.values() if spec[side])
        raise ConfigError(f"{', '.join(map(_named, unknown))}: not an input of the "
                          f"{demo.title}, which takes {takes or 'none'}")
    kwargs, names = {}, {}
    for name, kw in keywords.items():
        if name in given:
            kwargs[kw], names[kw] = _checked(demo.inputs[kw].rule, given[name], name), name
    out = Path(out_dir[1])
    if (file := next((p for p in (out, *out.parents) if p.exists() and not p.is_dir()), None)):
        raise ConfigError(f"{_named(out_dir[0])}: {file} is a file, not a directory")
    try:
        outcome = demo.run(**kwargs)
    except ArgumentError as exc:
        named = [_named(names[kw]) for kw in exc.names if kw in names]
        raise ConfigError(": ".join(named[:1] + [exc.args[1]])) from None
    out.mkdir(parents=True, exist_ok=True)
    if outcome.csvs:
        write, axis, files = outcome.csvs
        (path, values), *more = ((out / f"{prefix}_{name}.csv", v) for name, v in files.items())
        write(path, axis, values, more=more)
    write_json_report(out / f"{prefix}_report.json", label, {**echo, **outcome.echo},
                      outcome.checks, outcome.evidence, outcome.counters)
    bad = failing_checks(outcome.checks)
    if bad:
        print(f"{label}: failing checks: {', '.join(bad)}", file=sys.stderr)
        return 1
    return 0


def reproduce(example_id: str, out_dir=REPORT_DIR, **flags) -> int:
    """Run one built-in demo end to end; ``flags`` are its options, None when not given."""
    if example_id not in catalog.EXAMPLE_IDS:
        raise ConfigError(f"unknown example id {example_id!r}; choose from {catalog.EXAMPLE_IDS}")
    given = {f"--{name}": value for name, value in flags.items() if value is not None}
    return _execute(example_id, given, {"example": example_id, **flags},
                    ("--out-dir", out_dir), example_id, example_id)


def _leaves(config: dict, prefix: str = ""):
    """(dotted field, value) in ``config``, descending into the objects that hold fields."""
    for key, value in config.items():
        name = prefix + key
        if "." in key:
            raise ConfigError(f"{_named(name)}: a key must not contain a dot")
        if value is None:
            raise ConfigError(f"{_named(name)}: must not be null")
        if type(value) is dict and any(field.startswith(name + ".") for field in FIELDS):
            yield from _leaves(value, name + ".")
        else:
            yield name, _checked(TEXT_FIELDS[name], value, name) if name in TEXT_FIELDS else value


def validate_config(raw) -> tuple[str, dict]:
    """The key of the ``DEMOS`` entry a parsed config selects, and its dotted fields."""
    if type(raw) is not dict:
        raise ConfigError(f"a config must be a JSON object, got {reprlib.repr(raw)}")
    given = dict(_leaves(raw))
    keys = list(DEMOS)
    for field in dict.fromkeys(field for demo in DEMOS.values() for field in demo.selects):
        value = given.get(field)
        picked = [k for k in keys if value in DEMOS[k].selects.get(field, [value])]
        if not picked:
            allowed = dict.fromkeys(v for k in keys for v in DEMOS[k].selects[field] if v)
            raise ConfigError(f"{_named(field)}: must be one of "
                              f"{', '.join(map(repr, allowed))}, got {reprlib.repr(value)}")
        keys = picked
    return keys[0], given


def run_config(config_path: str) -> int:
    """Validate a JSON experiment configuration and run the entry of ``DEMOS`` it selects."""
    try:
        config = json.loads(Path(config_path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    key, given = validate_config(config)
    given.pop("label", None)
    out_dir = ("output.dir", given.pop("output.dir", REPORT_DIR))
    if key != "detect":
        # output paths stay out of the echo, so reruns elsewhere stay comparable
        echo = {k: v for k, v in config.items() if k != "output"}
        prefix, label = config["kind"], DEMOS[key].label
    elif "input_csv" in given:
        stem = Path(given["input_csv"]).stem
        prefix, label, echo = f"{stem}_evidence", f"detect:{stem}", {}
    else:
        raise ConfigError("config field 'input_csv': required for kind 'detect'")
    prefix = given.pop("output.prefix", prefix)
    return _execute(key, given, echo, out_dir, prefix, label)


def detect(csv_path: str, out_dir=REPORT_DIR, **flags) -> int:
    """Scan a CSV series for recurrence evidence and write its report.

    ``flags`` are the options by keyword, None when not given; see ``_scan_series``."""
    given = {"csv": csv_path, **{"--" + kw.replace("_", "-"): value
                                 for kw, value in flags.items() if value is not None}}
    stem = Path(csv_path).stem
    return _execute("detect", given, {}, ("--out-dir", out_dir), f"{stem}_evidence",
                    f"detect:{stem}")


# ---------------------------------------------------------------------------
# argument parsing


def _inputs_text(keys, fields: bool) -> str:
    """One line per entry of ``DEMOS``: its flags and, with ``fields``, its config fields."""
    lines = []
    for key in keys:
        inputs = DEMOS[key].inputs.values()
        names = [i.flag for i in inputs if i.flag] + [i.field for i in inputs if fields and i.field]
        lines.append(f"  {key:<9}{DEMOS[key].title}: {' '.join(names)}")
    return "\n".join(lines) + "\n"


DETECT_HELP = {
    "--delta": "half-width of the separation intervals in time units, function CSVs only "
               f"(default {SCAN_DELTA})",
    "--window": f"compared indices, sequence CSVs only (default {SCAN_WINDOW})",
    "--min-shift": "smallest near-return shift in time units, function CSVs only "
                   f"(default {catalog.FUNCTION_MIN_SHIFT})",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="updyn",
        description="Unpredictable-dynamics demos, simulations and detectors.")
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("reproduce", help="run a built-in demo end to end",
                         formatter_class=argparse.RawDescriptionHelpFormatter,
                         epilog="flags each demo takes (any other exits 2):\n"
                                + _inputs_text(catalog.EXAMPLE_IDS, fields=False))
    rep.add_argument("example_id", choices=catalog.EXAMPLE_IDS)

    run = sub.add_parser("run", help="run a JSON experiment configuration")
    run.add_argument("config_path", metavar="config")

    det = sub.add_parser("detect", help="scan a CSV series for recurrence evidence")
    det.add_argument("csv_path", metavar="csv")
    for command, keys in ((rep, catalog.EXAMPLE_IDS), (det, ["detect"])):
        command.add_argument("--out-dir", default=REPORT_DIR)
        flags = (i.flag for key in keys for i in DEMOS[key].inputs.values())
        for flag in dict.fromkeys(f for f in flags if f and f.startswith("--")):
            command.add_argument(flag, type=float, help=DETECT_HELP.get(flag))
    return parser


def main(argv=None) -> int:
    try:
        args = vars(build_parser().parse_args(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    command = {"reproduce": reproduce, "run": run_config, "detect": detect}[args.pop("command")]
    try:
        return command(**args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except UpdynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __doc__ is not None:
    __doc__ += "\nInputs of each entry of ``DEMOS``, as flags and as config fields:\n\n" \
        + _inputs_text(DEMOS, fields=True)

if __name__ == "__main__":
    sys.exit(main())
