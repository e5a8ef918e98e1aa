"""Command-line front end: reproduce built-in demos, run configs, scan CSVs.

Exit status: 0 on success, 1 when a reported check fails, 2 on usage or
configuration errors.  All outputs are deterministic for a fixed
configuration, so repeated runs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np
from jsonschema import Draft202012Validator

from . import catalog
from .chaos import quadrature_oracle
from .constructs import VectorSequence
from .delay import picard_apply
from .detectors import collect_evidence, evidence_for_function, verify_evidence
from .discrete import orbit_sum_residual
from .errors import ConfigError, DomainError, UpdynError
from .report import (CheckRecord, failing_checks, jsonable, read_series_csv,
                     write_function_csv, write_json_report, write_sequence_csv)

SQRT5_OVER_4 = math.sqrt(5.0) / 4.0
EXACT_AMPLITUDE = (4.0 + math.sqrt(10.0)) / math.sqrt(6.0)

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["kind"],
    "additionalProperties": False,
    "properties": {
        "kind": {"enum": ["construct", "delay", "discrete", "detect"]},
        "label": {"type": "string"},
        "input_csv": {"type": "string"},
        "source": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "seed": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "burn_in": {"type": "integer", "minimum": 0},
                "horizon": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "system": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "matrix": {
                    "type": "array", "minItems": 1,
                    "items": {"type": "array", "minItems": 1, "items": {"type": "number"}},
                },
                "tau": {"type": "number", "exclusiveMinimum": 0},
                "nonlinearity": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["type"],
                    "properties": {
                        "type": {"enum": sorted(catalog.NONLINEARITIES)},
                        "scale": {"type": "number", "exclusiveMinimum": 0},
                    },
                },
                "forcing": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["type"],
                    "properties": {
                        "type": {"enum": ["construct", "zero", "constant"]},
                        "value": {"type": "array", "items": {"type": "number"}},
                    },
                },
            },
        },
        "numeric": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "step": {"type": "number", "exclusiveMinimum": 0},
                "window": {"type": "array", "minItems": 2, "maxItems": 2,
                           "items": {"type": "number"}},
                "tol": {"type": "number", "exclusiveMinimum": 0},
                "epsilon": {"type": "number", "exclusiveMinimum": 0},
                "epsilon0": {"type": "number", "exclusiveMinimum": 0},
                "delta": {"type": "number", "exclusiveMinimum": 0},
                "burn_in_time": {"type": "number", "exclusiveMinimum": 0},
                "ladder": {"type": "array", "minItems": 1,
                           "items": {"type": "number", "exclusiveMinimum": 0}},
                "variant": {"enum": ["function", "sequence"]},
                "compare_window": {"type": "integer", "minimum": 0},
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "dir": {"type": "string"},
                "prefix": {"type": "string"},
            },
        },
    },
}


def validate_config(raw: dict) -> dict:
    errors = sorted(Draft202012Validator(CONFIG_SCHEMA).iter_errors(raw),
                    key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        where = ".".join(str(p) for p in err.absolute_path) or "<root>"
        raise ConfigError(f"config field '{where}': {err.message}")
    return raw


def _echo(config: dict) -> dict:
    # output paths stay out so reruns into other directories stay comparable
    return {k: v for k, v in config.items() if k != "output"}


def _write_report(out_dir: Path, prefix: str, example: str, config_echo: dict,
                  checks: list, evidence: dict, counters: dict) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{prefix}_report.json"
    write_json_report(path, example, config_echo, checks, evidence, counters)
    return path


# ---------------------------------------------------------------------------
# renderers for the built-in demos


def _render_function_demo(demo, out_dir: Path, prefix: str, echo: dict) -> list:
    checks = []
    h_sup = float(np.abs(demo.triple.psi.samples[:, 1]).max())
    checks.append(CheckRecord.from_bool(
        "h_sup_bound", h_sup <= 0.5 + 1e-12,
        values={"max_abs_h": h_sup}, tolerances={"bound": 0.5, "slack": 1e-12}))

    rng = np.random.default_rng(2027)
    usable_lo = demo.filt.t_start + 40.0
    worst = 0.0
    for t in rng.uniform(usable_lo, demo.filt.t_end, size=10):
        closed = float(demo.filt.eval(t))
        worst = max(worst, abs(closed - quadrature_oracle(demo.filt, t)))
    checks.append(CheckRecord.from_bool(
        "quadrature_oracle", worst <= 1e-10,
        values={"max_abs_gap": worst, "points": 10}, tolerances={"gap": 1e-10}))

    checks.append(CheckRecord.from_bool(
        "psi_sup_bound", demo.psi_sup <= demo.psi_sup_bound + 1e-12,
        values={"psi_sup": demo.psi_sup, "bound": demo.psi_sup_bound},
        tolerances={"slack": 1e-12}))
    checks.append(CheckRecord.from_bool(
        "decomposition_exact", demo.triple.decomposition_residual() <= 1e-14,
        values={"residual": demo.triple.decomposition_residual()},
        tolerances={"residual": 1e-14}))
    checks.append(CheckRecord.from_bool(
        "witness", demo.witness.found and demo.witness.location == 0.0,
        values={"location": demo.witness.location, "theta_norm": demo.witness.tail_norm,
                "threshold": demo.witness.threshold, "margin": demo.witness.margin},
        tolerances={}))
    crossing = demo.decay.crossing(1e-6)
    checks.append(CheckRecord.from_bool(
        "tail_decay", crossing is not None and 14.0 <= crossing <= 15.5,
        values={"rung": 1e-6, "crossing_time": crossing},
        tolerances={"expected_range": [14.0, 15.5]}))
    checks.append(CheckRecord.from_bool(
        "evidence_verified", demo.evidence_verified, values={}, tolerances={}))

    h = demo.triple.psi.samples[:, 1]
    times = demo.triple.phi.times()
    write_function_csv(out_dir / f"{prefix}_h.csv", times, h)
    write_function_csv(out_dir / f"{prefix}_phi.csv", times, demo.triple.phi.samples)
    write_function_csv(out_dir / f"{prefix}_psi.csv", times, demo.triple.psi.samples)
    write_function_csv(out_dir / f"{prefix}_theta.csv", times, demo.triple.theta.samples)
    evidence = {"scan": jsonable(demo.evidence), "decay": jsonable(demo.decay),
                "witness": jsonable(demo.witness)}
    counters = {"grid_nodes": len(times), "oracle_points": 10,
                "scanned_shifts": demo.evidence.scanned_horizon}
    return [checks, evidence, counters]


def _render_sequence_demo(demo, out_dir: Path, prefix: str, echo: dict,
                          csv_window: int = 2000) -> list:
    checks = []
    checks.append(CheckRecord.from_bool(
        "psi_sup_bound", demo.psi_sup <= demo.psi_sup_bound + 1e-12,
        values={"psi_sup": demo.psi_sup, "bound": demo.psi_sup_bound},
        tolerances={"slack": 1e-12}))
    checks.append(CheckRecord.from_bool(
        "decomposition_exact", demo.triple.decomposition_residual() <= 1e-14,
        values={"residual": demo.triple.decomposition_residual()},
        tolerances={"residual": 1e-14}))
    checks.append(CheckRecord.from_bool(
        "witness", demo.witness.found and demo.witness.location == 0,
        values={"location": demo.witness.location, "theta_norm": demo.witness.tail_norm,
                "threshold": demo.witness.threshold, "margin": demo.witness.margin},
        tolerances={}))
    crossing = demo.decay.crossing(0.02)
    checks.append(CheckRecord.from_bool(
        "tail_decay", crossing == 10,
        values={"rung": 0.02, "crossing_index": crossing},
        tolerances={"expected": 10}))
    checks.append(CheckRecord.from_bool(
        "evidence_verified", demo.evidence_verified, values={}, tolerances={}))
    checks.append(CheckRecord.from_bool(
        "orbit_recurrence", float(demo.orbit.recurrence_residuals().max()) <= 4e-16,
        values={"max_residual": float(demo.orbit.recurrence_residuals().max())},
        tolerances={"residual": 4e-16}))

    hi = min(demo.triple.phi.end_index - 1, demo.triple.phi.base_index + csv_window)
    cut = demo.triple.phi.restrict(demo.triple.phi.base_index, hi)
    idx = cut.indices()
    write_sequence_csv(out_dir / f"{prefix}_phi.csv", idx, cut.values)
    write_sequence_csv(out_dir / f"{prefix}_psi.csv", idx,
                       demo.triple.psi.restrict(idx[0], idx[-1]).values)
    write_sequence_csv(out_dir / f"{prefix}_theta.csv", idx,
                       demo.triple.theta.restrict(idx[0], idx[-1]).values)
    evidence = {"scan": jsonable(demo.evidence), "decay": jsonable(demo.decay),
                "witness": jsonable(demo.witness)}
    counters = {"orbit_length": len(demo.orbit),
                "scanned_shifts": demo.evidence.scanned_horizon}
    return [checks, evidence, counters]


def _render_delay_demo(demo, out_dir: Path, prefix: str, echo: dict) -> list:
    checks = []
    eigs = np.linalg.eigvals(demo.spec_combined.matrix)
    expected = np.array([-2.0 + 1j * math.sqrt(6.0), -2.0 - 1j * math.sqrt(6.0)])
    gap = float(max(min(abs(e - expected[0]), abs(e - expected[1])) for e in eigs))
    checks.append(CheckRecord.from_bool(
        "eigenvalues", gap <= 1e-9,
        values={"eigenvalues": [[e.real, e.imag] for e in eigs]},
        tolerances={"gap": 1e-9}))
    checks.append(CheckRecord.from_bool(
        "stability_amplitude", demo.constants.mode == "exact"
        and abs(demo.constants.amplitude - EXACT_AMPLITUDE) <= 1e-9,
        values={"amplitude": demo.constants.amplitude,
                "decay_rate": demo.constants.decay_rate, "mode": demo.constants.mode},
        tolerances={"amplitude_gap": 1e-9}))
    checks.append(CheckRecord.from_bool(
        "contraction_margin", demo.assumptions.a3_pass,
        values={"A3_margin": demo.assumptions.margin,
                "A1_pass": demo.assumptions.a1_pass, "A2_pass": demo.assumptions.a2_pass},
        tolerances={"positive": 0.0}))
    checks.append(CheckRecord.from_bool(
        "envelope", demo.report.envelope_ok,
        values={"max_excess": demo.report.max_excess, "alpha": demo.report.alpha,
                "k1": demo.proof.k1, "k2": demo.proof.k2, "m0": demo.proof.m0},
        tolerances={"slack": 1e-6}))

    times = demo.phi_solution.times()
    diff = np.linalg.norm(demo.phi_solution.samples - demo.psi_solution.samples, axis=1)
    quarter = times >= times[0] + 0.75 * (times[-1] - times[0])
    tail_quarter = float(diff[quarter].max())
    checks.append(CheckRecord.from_bool(
        "tail_sup_final_quarter", tail_quarter < 1e-3,
        values={"tail_sup": tail_quarter}, tolerances={"bound": 1e-3}))
    checks.append(CheckRecord.from_bool(
        "tail_past_predicted", demo.report.tail_ok,
        values={"tail_start": demo.report.tail_start, "tail_sup": demo.report.tail_sup},
        tolerances={"epsilon": demo.epsilon}))

    gamma_fn = demo.phi_solution.samples - demo.psi_solution.samples
    candidate = demo.phi_solution
    from .chaos import GridFunction
    candidate = GridFunction(candidate.t_start, candidate.step, gamma_fn)
    image = picard_apply(demo.spec_combined, demo.psi_solution, demo.theta_grid,
                         candidate, demo.alpha)
    fp_gap = float(np.linalg.norm(image.samples - candidate.samples, axis=1).max())
    checks.append(CheckRecord.from_bool(
        "picard_fixed_point", fp_gap <= 1e-6,
        values={"max_gap": fp_gap}, tolerances={"gap": 1e-6}))

    write_function_csv(out_dir / f"{prefix}_phi_solution.csv", times, demo.phi_solution.samples)
    write_function_csv(out_dir / f"{prefix}_psi_solution.csv", times, demo.psi_solution.samples)
    write_function_csv(out_dir / f"{prefix}_difference.csv", times, diff[:, None])
    evidence = {"alpha": demo.alpha, "gamma": demo.gamma, "epsilon": demo.epsilon,
                "m_phi": demo.m_phi, "m_psi": demo.m_psi,
                "crossings": jsonable(demo.report.crossings),
                "proof_constants": jsonable(demo.proof)}
    counters = {"grid_nodes": len(times),
                "rk4_steps": int(round((times[-1] - times[0]) / demo.phi_solution.step))}
    return [checks, evidence, counters]


def _render_discrete_demo(demo, out_dir: Path, prefix: str, echo: dict) -> list:
    checks = []
    checks.append(CheckRecord.from_bool(
        "spectral_norm", abs(demo.norm_b - SQRT5_OVER_4) <= 1e-9,
        values={"spectral_norm": demo.norm_b, "expected": SQRT5_OVER_4},
        tolerances={"gap": 1e-9}))
    margin_expected = 1.0 - SQRT5_OVER_4 - 0.2
    checks.append(CheckRecord.from_bool(
        "contraction_margin", demo.assumptions.b3_pass
        and abs(demo.assumptions.margin - margin_expected) <= 1e-9,
        values={"B3_margin": demo.assumptions.margin,
                "B1_pass": demo.assumptions.b1_pass, "B2_pass": demo.assumptions.b2_pass},
        tolerances={"gap": 1e-9}))
    checks.append(CheckRecord.from_bool(
        "envelope", demo.report.envelope_ok,
        values={"max_excess": demo.report.max_excess, "alpha": demo.report.alpha},
        tolerances={"slack": 1e-9}))

    drop = next((c for c in demo.report.crossings if c[0] == 1e-6), None)
    drop_ok = drop is not None and drop[1] is not None and drop[1] <= demo.alpha + 60
    checks.append(CheckRecord.from_bool(
        "difference_drop", drop_ok,
        values={"rung": 1e-6, "crossing_index": None if drop is None else drop[1],
                "alpha": demo.alpha},
        tolerances={"within": 60}))

    resid = _recurrence_residual(demo.spec_combined, demo.phi_orbit)
    checks.append(CheckRecord.from_bool(
        "recurrence_residual", resid <= 4e-15,
        values={"max_residual": resid}, tolerances={"residual": 4e-15}))
    sum_gap = orbit_sum_residual(demo.spec_combined, demo.phi_orbit, tol=1e-10)
    checks.append(CheckRecord.from_bool(
        "sum_representation", sum_gap <= 1e-9,
        values={"max_gap": sum_gap}, tolerances={"gap": 1e-9}))

    idx = demo.phi_orbit.indices()
    diff = np.linalg.norm(demo.phi_orbit.values - demo.psi_orbit.values, axis=1)
    write_sequence_csv(out_dir / f"{prefix}_phi_orbit.csv", idx, demo.phi_orbit.values)
    write_sequence_csv(out_dir / f"{prefix}_psi_orbit.csv", idx, demo.psi_orbit.values)
    write_sequence_csv(out_dir / f"{prefix}_difference.csv", idx, diff[:, None])
    evidence = {"alpha": demo.alpha, "gamma": demo.gamma, "epsilon": demo.epsilon,
                "m_phi": demo.m_phi, "m_psi": demo.m_psi,
                "crossings": jsonable(demo.report.crossings),
                "envelope_persistent_level": demo.envelope.persistent_level,
                "envelope_decay_base": demo.envelope.decay_base}
    counters = {"window": [int(idx[0]), int(idx[-1])], "orbit_steps": len(idx) - 1}
    return [checks, evidence, counters]


def _recurrence_residual(spec, orbit: VectorSequence) -> float:
    w = orbit.values
    i0 = orbit.base_index - spec.forcing.base_index
    phi = spec.forcing.values[i0:i0 + len(orbit) - 1]
    pred = w[:-1] @ spec.matrix.T + spec.nonlinearity(w[:-1]) + phi
    return float(np.abs(w[1:] - pred).max())


def reproduce(example_id: str, out_dir="updyn-report", seed: float | None = None,
              horizon: float | None = None, step: float | None = None,
              tol: float | None = None) -> int:
    """Run one built-in demo end to end and write its CSV and JSON outputs."""
    if example_id not in catalog.EXAMPLE_IDS:
        raise ConfigError(f"unknown example id {example_id!r}; choose from {catalog.EXAMPLE_IDS}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    echo = {"example": example_id, "seed": seed, "horizon": horizon,
            "step": step, "tol": tol}

    if example_id == "6.1":
        demo = catalog.run_function_demo(seed=seed or catalog.DEFAULT_SEED,
                                         step=step or 0.05,
                                         horizon=horizon or 10 ** 4)
        checks, evidence, counters = _render_function_demo(demo, out, "6.1", echo)
    elif example_id == "6.2":
        demo = catalog.run_sequence_demo(seed=seed or catalog.DEFAULT_SEED,
                                         horizon=int(horizon or 10 ** 6))
        checks, evidence, counters = _render_sequence_demo(demo, out, "6.2", echo)
    elif example_id == "6.3":
        demo = catalog.run_delay_demo(step=step or catalog.DELAY_TAU / 32.0,
                                      seed=seed or catalog.DEFAULT_SEED)
        checks, evidence, counters = _render_delay_demo(demo, out, "6.3", echo)
    else:
        demo = catalog.run_discrete_demo(tol=tol or 1e-9,
                                         seed=seed or catalog.DEFAULT_SEED)
        checks, evidence, counters = _render_discrete_demo(demo, out, "6.4", echo)

    _write_report(out, example_id, example_id, echo, checks, evidence, counters)
    bad = failing_checks(checks)
    if bad:
        print(f"reproduce {example_id}: failing checks: {', '.join(bad)}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# config-driven runs


def _constant_forcing(value, dim):
    v = np.broadcast_to(np.asarray(value, dtype=float), (dim,))

    def forcing(t):
        t = np.asarray(t, dtype=float)
        return np.broadcast_to(v, t.shape + (dim,))
    return forcing


def run_config(config_path: str) -> int:
    """Validate and dispatch a JSON experiment configuration."""
    path = Path(config_path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        config = validate_config(raw)
        return _dispatch_config(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def _dispatch_config(config: dict) -> int:
    kind = config["kind"]
    out_block = config.get("output", {})
    out = Path(out_block.get("dir", "updyn-report"))
    prefix = out_block.get("prefix", kind)
    numeric = config.get("numeric", {})
    source = config.get("source", {})
    echo = _echo(config)
    out.mkdir(parents=True, exist_ok=True)

    if kind == "construct":
        variant = numeric.get("variant", "sequence")
        if variant == "function":
            demo = catalog.run_function_demo(
                seed=source.get("seed", catalog.DEFAULT_SEED),
                burn_in=source.get("burn_in", catalog.DEFAULT_BURN_IN),
                step=numeric.get("step", 0.05),
                horizon=source.get("horizon", 10 ** 4))
            checks, evidence, counters = _render_function_demo(demo, out, prefix, echo)
        else:
            demo = catalog.run_sequence_demo(
                seed=source.get("seed", catalog.DEFAULT_SEED),
                burn_in=source.get("burn_in", catalog.DEFAULT_BURN_IN),
                horizon=int(source.get("horizon", 10 ** 6)),
                epsilon0=numeric.get("epsilon0", 0.3))
            checks, evidence, counters = _render_sequence_demo(demo, out, prefix, echo)
        label = f"construct:{variant}"

    elif kind == "delay":
        checks, evidence, counters = _run_delay_config(config, out, prefix)
        label = "delay"

    elif kind == "discrete":
        checks, evidence, counters = _run_discrete_config(config, out, prefix)
        label = "discrete"

    else:
        if "input_csv" not in config:
            raise ConfigError("config field 'input_csv': required for kind 'detect'")
        return detect(config["input_csv"], out_dir=str(out),
                      horizon=source.get("horizon"),
                      epsilon0=numeric.get("epsilon0", 0.3),
                      delta=numeric.get("delta", 0.2),
                      window=numeric.get("compare_window", 20))

    _write_report(out, prefix, label, echo, checks, evidence, counters)
    bad = failing_checks(checks)
    if bad:
        print(f"run {label}: failing checks: {', '.join(bad)}", file=sys.stderr)
        return 1
    return 0


def _run_delay_config(config: dict, out: Path, prefix: str):
    from .delay import (DelaySystemSpec, _exact_ratio, bounded_solution,
                        check_assumptions_A, stability_constants)

    system = config.get("system", {})
    numeric = config.get("numeric", {})
    source = config.get("source", {})
    tau = system.get("tau", catalog.DELAY_TAU)
    try:
        _exact_ratio(tau, numeric.get("step", tau / 32.0), "delay")
    except DomainError as exc:
        raise ConfigError(f"config field 'numeric.step': {exc}") from exc
    matrix = np.asarray(system.get("matrix", catalog.delay_demo_matrix()), dtype=float)
    nl_block = system.get("nonlinearity", {"type": "arctan_arccot"})
    nl = catalog.NONLINEARITIES[nl_block["type"]](matrix.shape[0], nl_block.get("scale", 1.0))
    forcing_block = system.get("forcing", {"type": "construct"})

    if forcing_block["type"] == "construct":
        demo = catalog.run_delay_demo(
            step=numeric.get("step", tau / 32.0),
            window=tuple(numeric.get("window", (0.0, 200.0))),
            sim_burn_in=numeric.get("burn_in_time", 30.0),
            seed=source.get("seed", catalog.DEFAULT_SEED),
            orbit_burn_in=source.get("burn_in", catalog.DEFAULT_BURN_IN),
            epsilon=numeric.get("epsilon", 1e-3),
            tau=tau)
        return _render_delay_demo(demo, out, prefix, _echo(config))

    constants = stability_constants(matrix)
    if forcing_block["type"] == "zero":
        forcing = _constant_forcing(np.zeros(matrix.shape[0]), matrix.shape[0])
    else:
        forcing = _constant_forcing(forcing_block.get("value", [0.0]), matrix.shape[0])
    spec = DelaySystemSpec(matrix, tau, nl, forcing)
    assumptions = check_assumptions_A(spec, constants)
    checks = [
        CheckRecord.from_bool("contraction_margin", assumptions.a3_pass,
                              values={"A3_margin": assumptions.margin,
                                      "A1_pass": assumptions.a1_pass,
                                      "A2_pass": assumptions.a2_pass},
                              tolerances={"positive": 0.0}),
        CheckRecord("stability_amplitude", "pass",
                    values={"amplitude": constants.amplitude,
                            "decay_rate": constants.decay_rate,
                            "mode": constants.mode}, tolerances={}),
    ]
    counters = {"simulated": False}
    if "window" in numeric and assumptions.a3_pass:
        window = tuple(numeric["window"])
        step = numeric.get("step", tau / 32.0)
        traj = bounded_solution(spec, constants, window, step,
                                tol=numeric.get("tol", 1e-8))
        write_function_csv(out / f"{prefix}_solution.csv", traj.times(), traj.samples)
        bound = constants.amplitude * (nl.bound + _sup_forcing(forcing, window)) \
            / constants.decay_rate
        checks.append(CheckRecord.from_bool(
            "solution_sup_bound", traj.sup_norm() <= bound + numeric.get("tol", 1e-8),
            values={"sup": traj.sup_norm(), "bound": bound},
            tolerances={"tol": numeric.get("tol", 1e-8)}))
        counters = {"simulated": True, "grid_nodes": len(traj)}
    else:
        checks.append(CheckRecord("solution_sup_bound", "not-applicable", {}, {}))
    return [checks, {}, counters]


def _sup_forcing(forcing, window, samples: int = 257) -> float:
    t = np.linspace(window[0], window[1], samples)
    return float(np.linalg.norm(forcing(t), axis=-1).max())


def _run_discrete_config(config: dict, out: Path, prefix: str):
    from .discrete import DiscreteSystemSpec, bounded_orbit, check_assumptions_B

    system = config.get("system", {})
    numeric = config.get("numeric", {})
    source = config.get("source", {})
    matrix = np.asarray(system.get("matrix", catalog.discrete_demo_matrix()), dtype=float)
    nl_block = system.get("nonlinearity", {"type": "sin_cos"})
    nl = catalog.NONLINEARITIES[nl_block["type"]](matrix.shape[0], nl_block.get("scale", 1.0))
    forcing_block = system.get("forcing", {"type": "construct"})

    if forcing_block["type"] == "construct":
        window = numeric.get("window", (4000, 4400))
        demo = catalog.run_discrete_demo(
            window=(int(window[0]), int(window[1])),
            tol=numeric.get("tol", 1e-9),
            seed=source.get("seed", catalog.DEFAULT_SEED),
            orbit_burn_in=source.get("burn_in", catalog.DEFAULT_BURN_IN),
            epsilon=numeric.get("epsilon", 1e-5))
        return _render_discrete_demo(demo, out, prefix, _echo(config))

    dim = matrix.shape[0]
    window = numeric.get("window", (0, 400))
    i0, i1 = int(window[0]), int(window[1])
    if forcing_block["type"] == "zero":
        values = np.zeros((i1 - i0 + 200, dim))
    else:
        values = np.tile(np.broadcast_to(
            np.asarray(forcing_block.get("value", [0.0]), dtype=float), (dim,)),
            (i1 - i0 + 200, 1))
    forcing = VectorSequence(i0 - 199, values)
    spec = DiscreteSystemSpec(matrix, nl, forcing)
    assumptions = check_assumptions_B(spec)
    checks = [
        CheckRecord.from_bool("contraction_margin", assumptions.b3_pass,
                              values={"B3_margin": assumptions.margin,
                                      "B1_pass": assumptions.b1_pass,
                                      "B2_pass": assumptions.b2_pass},
                              tolerances={"positive": 0.0}),
        CheckRecord("spectral_norm", "pass",
                    values={"spectral_norm": assumptions.norm_b}, tolerances={}),
    ]
    counters = {"simulated": False}
    if assumptions.b3_pass:
        orbit = bounded_orbit(spec, (i0, i1), tol=numeric.get("tol", 1e-9))
        write_sequence_csv(out / f"{prefix}_orbit.csv", orbit.indices(), orbit.values)
        checks.append(CheckRecord.from_bool(
            "recurrence_residual", _recurrence_residual(spec, orbit) <= 4e-15,
            values={"max_residual": _recurrence_residual(spec, orbit)},
            tolerances={"residual": 4e-15}))
        counters = {"simulated": True, "orbit_steps": len(orbit) - 1}
    else:
        checks.append(CheckRecord("recurrence_residual", "not-applicable", {}, {}))
    return [checks, {}, counters]


# ---------------------------------------------------------------------------
# detect


def detect(csv_path: str, out_dir="updyn-report", horizon=None, epsilon0: float = 0.3,
           delta: float = 0.2, window: int = 20,
           ladder=(0.2, 0.1, 0.05, 0.02)) -> int:
    """Scan a CSV series for near returns and separations; write evidence JSON."""
    from .chaos import GridFunction

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        kind, axis, values = read_series_csv(csv_path)
    except (OSError, ValueError) as exc:
        print(f"cannot read series: {exc}", file=sys.stderr)
        return 2

    if kind == "sequence":
        seq = VectorSequence(int(axis[0]), values)
        evidence = collect_evidence(seq, window=window, ladder=ladder,
                                    epsilon0=epsilon0,
                                    horizon=int(horizon or 10 ** 6))
        verified = verify_evidence(seq, evidence)
    else:
        step = float(axis[1] - axis[0])
        grid = GridFunction(float(axis[0]), step, values)
        span = (grid.t_start, min(grid.t_end, grid.t_start + 20 * delta))
        evidence = evidence_for_function(grid, span, ladder=ladder, epsilon0=epsilon0,
                                         delta=delta,
                                         horizon=float(horizon or 10 ** 4))
        verified = verify_evidence(grid, evidence)

    checks = [CheckRecord.from_bool("evidence_verified", verified, {}, {})]
    stem = Path(csv_path).stem
    _write_report(out, f"{stem}_evidence", f"detect:{stem}",
                  {"input": stem, "epsilon0": epsilon0, "delta": delta,
                   "window": window, "horizon": horizon},
                  checks, {"scan": jsonable(evidence)},
                  {"series_length": int(values.shape[0])})
    if not verified:
        print("detect: evidence failed re-verification", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="updyn",
        description="Unpredictable-dynamics demos, simulations and detectors.")
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("reproduce", help="run a built-in demo end to end")
    rep.add_argument("example_id", choices=catalog.EXAMPLE_IDS)
    rep.add_argument("--out-dir", default="updyn-report")
    rep.add_argument("--seed", type=float, default=None)
    rep.add_argument("--horizon", type=float, default=None)
    rep.add_argument("--step", type=float, default=None)
    rep.add_argument("--tol", type=float, default=None)

    run = sub.add_parser("run", help="run a JSON experiment configuration")
    run.add_argument("config")

    det = sub.add_parser("detect", help="scan a CSV series for recurrence evidence")
    det.add_argument("csv")
    det.add_argument("--out-dir", default="updyn-report")
    det.add_argument("--horizon", type=float, default=None)
    det.add_argument("--epsilon0", type=float, default=0.3)
    det.add_argument("--delta", type=float, default=0.2)
    det.add_argument("--window", type=int, default=20)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "reproduce":
            return reproduce(args.example_id, out_dir=args.out_dir, seed=args.seed,
                             horizon=args.horizon, step=args.step, tol=args.tol)
        if args.command == "run":
            return run_config(args.config)
        return detect(args.csv, out_dir=args.out_dir, horizon=args.horizon,
                      epsilon0=args.epsilon0, delta=args.delta, window=args.window)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except UpdynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
