"""End-to-end acceptance criteria at their stated tolerances.

Each criterion prints one pass/fail line (visible under ``pytest -v -s``).
The simulation-heavy criteria populate the shared cache in conftest so later
criteria can reuse their results inside their own runtime budgets.
"""

import json
import math
import time

import numpy as np
import pytest

import conftest
from updyn import catalog, cli
from updyn.chaos import ExponentialFilter, GridFunction, convolve_exponential, \
    logistic_orbit, logistic_step, quadrature_oracle
from updyn.constructs import affine_transform, build_function_triple, \
    build_sequence_triple, function_tail, non_unpredictability_witness, sequence_psi, shift
from updyn.delay import DelaySystemSpec, constant_history, integrate_mos, picard_apply, \
    stability_constants
from updyn.detectors import sensitivity, separation_at, verify_evidence
from updyn.discrete import DiscreteSystemSpec, iterate, spectral_norm
from updyn.nonlinearity import Nonlinearity

SQRT5_OVER_4 = math.sqrt(5.0) / 4.0
EXACT_N = (4.0 + math.sqrt(10.0)) / math.sqrt(6.0)


def announce(number, ok, detail, elapsed):
    flag = "PASS" if ok else "FAIL"
    print(f"[{flag}] criterion {number}: {detail} ({elapsed:.2f}s)")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_spectral_norm_and_b3_margin():
    start = time.perf_counter()
    norm_b = spectral_norm(catalog.discrete_demo_matrix())
    margin = 1.0 - norm_b - 0.2
    elapsed = time.perf_counter() - start
    ok = (abs(norm_b - SQRT5_OVER_4) <= 1e-9
          and abs(margin - (1.0 - SQRT5_OVER_4 - 0.2)) <= 1e-9
          and elapsed < 1.0)
    announce(1, ok, f"|B| = {norm_b:.12f}, margin = {margin:.12f}", elapsed)


def test_criterion_02_stability_constants():
    start = time.perf_counter()
    a = catalog.delay_demo_matrix()
    eigs = np.linalg.eigvals(a)
    expected = (complex(-2.0, math.sqrt(6.0)), complex(-2.0, -math.sqrt(6.0)))
    eig_gap = max(min(abs(e - x) for x in expected) for e in eigs)
    constants = stability_constants(a)
    spec = DelaySystemSpec(a, 0.2, catalog.delay_demo_nonlinearity())
    margin = spec.margin
    elapsed = time.perf_counter() - start
    ok = (eig_gap <= 1e-9
          and constants.mode == "exact"
          and abs(constants.amplitude - EXACT_N) <= 1e-9
          and 0.8090 <= margin <= 0.8100
          and elapsed < 1.0)
    announce(2, ok, f"eig gap {eig_gap:.2e}, N = {constants.amplitude:.10f}, "
                    f"A3 margin = {margin:.6f}", elapsed)


def test_criterion_03_filtered_source_oracle_and_bound():
    start = time.perf_counter()
    orbit = logistic_orbit(0.41, 1000, 10021)
    h = convolve_exponential(orbit, 2.0, 0.05)
    sup = float(np.abs(h.values).max())
    filt = ExponentialFilter.from_orbit(orbit, 2.0)
    rng = np.random.default_rng(314)
    worst = 0.0
    for _ in range(50):
        a = rng.uniform(40.0, 10019.0)
        for u in rng.uniform(0.0, 1.0, size=3):
            t = a + u
            worst = max(worst, abs(float(filt.eval(t)) - quadrature_oracle(filt, t)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and sup <= 0.5 + 1e-12 and elapsed < 10.0
    announce(3, ok, f"oracle gap {worst:.2e} on 50 sub-intervals, sup |h| = {sup:.6f}",
             elapsed)


def test_criterion_04_witness_margins():
    start = time.perf_counter()
    fn_orbit = catalog.source_orbit(0.41, 1000, 120, -60)
    h = convolve_exponential(fn_orbit, 2.0, 0.05).restrict(-20.0, 40.0)
    fn_witness = non_unpredictability_witness(build_function_triple(h),
                                              math.sqrt(5.0) / 2.0)
    seq_witness = non_unpredictability_witness(
        build_sequence_triple(logistic_orbit(0.41, 1000, 100)),
        math.sqrt(17.0) / 4.0)
    elapsed = time.perf_counter() - start
    ok = (fn_witness.found and 0.74 <= fn_witness.margin <= 0.76
          and seq_witness.found and 0.34 <= seq_witness.margin <= 0.36
          and elapsed < 1.0)
    announce(4, ok, f"function margin {fn_witness.margin:.4f} at t = "
                    f"{fn_witness.location}, sequence margin {seq_witness.margin:.4f} "
                    f"at i = {seq_witness.location}", elapsed)


def test_criterion_05_discrete_convergence():
    start = time.perf_counter()
    demo = catalog.run_discrete_demo()
    conftest._cache["discrete"] = demo
    report = demo.report
    drop = next(c for c in report.crossings if c[0] == 1e-6)
    elapsed = time.perf_counter() - start
    ok = (report.envelope_ok and report.max_excess <= 1e-9
          and drop[1] is not None and drop[1] <= demo.alpha + 60
          and elapsed < 5.0)
    announce(5, ok, f"envelope excess {report.max_excess:.2e}, 1e-6 reached at "
                    f"index {drop[1]} (alpha = {demo.alpha})", elapsed)


def test_criterion_06_delay_convergence():
    start = time.perf_counter()
    demo = catalog.run_delay_demo()
    conftest._cache["delay"] = demo
    report = demo.report
    times = demo.phi_solution.times()
    diff = np.linalg.norm(demo.phi_solution.values - demo.psi_solution.values, axis=1)
    quarter_sup = float(diff[times >= times[0] + 0.75 * (times[-1] - times[0])].max())
    elapsed = time.perf_counter() - start
    ok = (report.envelope_ok and report.max_excess <= 1e-6
          and quarter_sup < 1e-3 and elapsed < 60.0)
    announce(6, ok, f"envelope excess {report.max_excess:.2e}, final-quarter sup "
                    f"{quarter_sup:.2e}", elapsed)


def test_criterion_07_contraction_and_picard():
    start = time.perf_counter()
    demo = conftest.get_delay_demo()
    grid = demo.phi_solution
    base = grid.values - demo.psi_solution.values
    a_idx = grid.index_at(demo.alpha)
    constants = demo.spec.constants
    bound = constants.amplitude * demo.spec.nonlinearity.lipschitz \
        / constants.decay_rate + 0.05

    def apply_T(values):
        cand = GridFunction(grid.t_start, grid.step, values)
        return picard_apply(demo.spec, demo.psi_solution, demo.theta_grid,
                            cand, demo.alpha).values

    rng = np.random.default_rng(99)
    worst_ratio = 0.0
    for _ in range(20):
        n1 = rng.uniform(-0.5, 0.5, base.shape)
        n2 = rng.uniform(-0.5, 0.5, base.shape)
        n1[:a_idx + 1] = 0.0
        n2[:a_idx + 1] = 0.0
        num = np.linalg.norm(apply_T(base + n1) - apply_T(base + n2), axis=1).max()
        den = np.linalg.norm(n1 - n2, axis=1).max()
        worst_ratio = max(worst_ratio, num / den)

    # seed of the iteration: measured difference up to alpha, homogeneous decay after
    from scipy.linalg import expm
    seed = np.array(base, copy=True)
    e_step = expm(demo.spec.matrix * grid.step)
    v = base[a_idx].copy()
    for j in range(a_idx + 1, len(seed)):
        v = e_step @ v
        seed[j] = v
    diffs = []
    current = seed
    for _ in range(6):
        nxt = apply_T(current)
        diffs.append(np.linalg.norm(nxt - current, axis=1).max())
        current = nxt
    ratios = [b / a for a, b in zip(diffs, diffs[1:]) if a > 1e-14]
    elapsed = time.perf_counter() - start
    ok = (worst_ratio <= bound and ratios and max(ratios) <= bound and elapsed < 60.0)
    announce(7, ok, f"contraction ratio {worst_ratio:.4f} <= {bound:.4f} on 20 pairs, "
                    f"picard ratios max {max(ratios):.4f}", elapsed)


def test_criterion_08_exponential_stability_both_systems():
    start = time.perf_counter()
    # discrete: two random starts, per-index geometric envelope
    triple = build_sequence_triple(catalog.source_orbit(length=160))
    spec = DiscreteSystemSpec(catalog.discrete_demo_matrix(),
                              catalog.discrete_demo_nonlinearity())
    rng = np.random.default_rng(41)
    w0, v0 = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
    a = iterate(spec, triple.phi, w0, 100)
    b = iterate(spec, triple.phi, v0, 100)
    gap = np.linalg.norm(a.values - b.values, axis=1)
    q = SQRT5_OVER_4 + 0.2
    d0 = float(np.linalg.norm(w0 - v0))
    discrete_ok = all(gap[i] <= q ** i * d0 * (1.0 + 1e-9) + 1e-15 for i in range(101))
    discrete_converges = gap[-1] < 1e-8 * d0

    # delay: two random bounded histories, log-slope of the separation
    filt = catalog.function_source(0.41, 1000, -2.0, 14.0)
    dspec = DelaySystemSpec(catalog.delay_demo_matrix(), 0.2,
                            catalog.delay_demo_nonlinearity())
    step = 0.2 / 32.0
    k = round(0.2 / step)
    h1 = GridFunction(-0.2, step, rng.uniform(-1, 1, (k + 1, 2)))
    h2 = GridFunction(-0.2, step, rng.uniform(-1, 1, (k + 1, 2)))
    # 6.3's full forcing psi + tail on the half grid of [0, 12]
    t_half = h1.t_end + 0.5 * step * np.arange(2 * round(12.0 / step) + 1)
    samples = (catalog.recurrent_forcing(filt)(t_half) + function_tail(t_half))[None]
    (x1,), (x2,) = (integrate_mos(dspec, h, 12.0, step, samples) for h in (h1, h2))
    sep = np.linalg.norm(x1.values - x2.values, axis=1)
    times = x1.times()
    half = times >= 6.0
    slope = float(np.polyfit(times[half], np.log(sep[half]), 1)[0])
    delay_converges = sep[-1] < sep[0]
    elapsed = time.perf_counter() - start
    ok = (discrete_ok and discrete_converges and delay_converges
          and slope <= -0.3 and elapsed < 30.0)
    announce(8, ok, f"discrete envelope exact over 100 steps, delay log-slope "
                    f"{slope:.3f} <= -0.3", elapsed)


def test_criterion_09_detector_consistency_and_sensitivity():
    start = time.perf_counter()
    demo = conftest.get_sequence_demo()
    psi = sequence_psi(demo.orbit)
    verified = verify_evidence(psi, demo.evidence)
    manual_ok = True
    for ret in demo.evidence.return_times:
        if not ret.found:
            continue
        worst = max(float(np.linalg.norm(psi.values[i + ret.shift] - psi.values[i]))
                    for i in range(ret.window + 1))
        manual_ok &= worst < ret.target
    for sep in demo.evidence.separation_times:
        manual_ok &= separation_at(psi, sep.shift, sep.offset) >= 0.3

    orbits = [logistic_orbit(x0, 0, 10 ** 4 + 1) for x0 in (0.41, 0.41 + 1e-10)]
    # both orbits follow the map as logistic_step defines it, one step at a time
    map_ok = all(x[k + 1] == logistic_step(x[k], 3.91) for orbit in orbits
                 for x in [orbit.values[:100, 0].tolist()] for k in range(99))
    step = sensitivity(*orbits, threshold=0.3)
    elapsed = time.perf_counter() - start
    ok = verified and manual_ok and map_ok and step is not None and elapsed < 30.0
    announce(9, ok, f"evidence re-verified, divergence at step {step}", elapsed)


def test_criterion_10_transform_lemmas_at_evidence_level():
    start = time.perf_counter()
    demo = conftest.get_sequence_demo()
    psi = sequence_psi(demo.orbit)
    events = demo.evidence.separation_times
    assert events, "no separation events recorded"

    rng = np.random.default_rng(7)
    rot, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    omega = rot @ np.diag([0.7, 1.6]) @ rot.T
    norm_omega = spectral_norm(omega)
    norm_inv = spectral_norm(np.linalg.inv(omega))
    transformed = affine_transform(psi, omega, np.array([0.4, -0.9]))
    affine_ok = True
    for ev in events:
        sep = ev.separation
        re_sep = separation_at(transformed, ev.shift, ev.offset)
        affine_ok &= (sep / norm_inv - 1e-9 <= re_sep <= sep * norm_omega + 1e-9)

    m = 5
    moved = shift(psi, m)
    shift_ok = True
    for ev in events:
        orig = separation_at(psi, ev.shift, ev.offset)
        again = float(np.linalg.norm(
            moved.value_at(ev.shift + ev.offset - m) - moved.value_at(ev.offset - m)))
        shift_ok &= abs(orig - again) <= 1e-12
    elapsed = time.perf_counter() - start
    ok = affine_ok and shift_ok and elapsed < 10.0
    announce(10, ok, f"{len(events)} separations rescaled within "
                     f"[1/|O^-1|, |O|] and shift-invariant", elapsed)


def test_criterion_11_reproduce_determinism(tmp_path):
    start = time.perf_counter()
    identical = True
    for example in catalog.EXAMPLE_IDS:
        out = tmp_path / example.replace(".", "_")
        assert cli.main(["reproduce", example, "--out-dir", str(out)]) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert cli.main(["reproduce", example, "--out-dir", str(out)]) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        identical &= first == second
    elapsed = time.perf_counter() - start
    announce(11, identical, "reproduce 6.1-6.4 byte-identical on repeat", elapsed)
