import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from updyn import catalog
from updyn.chaos import GridFunction
from updyn.delay import (DelaySystemSpec, _segment_midpoints, bounded_solution,
                         check_assumptions_A, constant_history, contraction_margin,
                         convergence_check, integrate_mos, picard_apply, proof_constants,
                         stability_constants, step_residuals, verify_decay_bound)
from updyn.errors import AssumptionError, DomainError, NonFiniteStateError, StabilityError
from updyn.nonlinearity import Nonlinearity

EXACT_N = (4.0 + math.sqrt(10.0)) / math.sqrt(6.0)


def zero_forcing(t):
    t = np.asarray(t, dtype=float)
    return np.zeros(t.shape + (2,))


def demo_spec(forcing=zero_forcing, tau=0.2):
    return DelaySystemSpec(catalog.delay_demo_matrix(), tau,
                           catalog.delay_demo_nonlinearity(), forcing)


def wave_forcing(dim):
    def forcing(t):
        t = np.asarray(t, dtype=float)
        return np.stack([np.sin((j + 1) * t + j) for j in range(dim)], axis=-1)
    return forcing


# Step-by-step references for the blocked solvers: one RK4 or quadrature step per pass.

def _reference_midpoint(xs, j, k, last):
    seg_lo = (j // k) * k
    seg_hi = min(seg_lo + k, last)
    if j - 1 >= seg_lo and j + 2 <= seg_hi:
        return (-xs[j - 1] + 9.0 * xs[j] + 9.0 * xs[j + 1] - xs[j + 2]) / 16.0
    if j - 1 < seg_lo:
        return (5.0 * xs[j] + 15.0 * xs[j + 1] - 5.0 * xs[j + 2] + xs[j + 3]) / 16.0
    return (xs[j - 2] - 5.0 * xs[j - 1] + 15.0 * xs[j] + 5.0 * xs[j + 1]) / 16.0


def reference_mos(spec, history, t_end, step):
    """One classical RK4 step at a time, delayed midpoints by the cubic stencil."""
    k = round(spec.delay / step)
    t0 = history.t_end
    n_steps = round((t_end - t0) / step)
    times = t0 + 0.5 * step * np.arange(2 * n_steps + 1)
    forcing = np.asarray(spec.forcing(times), dtype=float).reshape(times.size, -1)
    a, f, h = spec.matrix, spec.nonlinearity, step
    last = k + n_steps
    xs = np.empty((last + 1, spec.dim))
    xs[:k + 1] = history.samples
    for j in range(n_steps):
        x, d = xs[k + j], j
        fd0 = f(xs[d])
        fdm = f(_reference_midpoint(xs, d, k, last))
        fd1 = f(xs[d + 1])
        p0, pm, p1 = forcing[2 * j], forcing[2 * j + 1], forcing[2 * j + 2]
        k1 = a @ x + fd0 + p0
        k2 = a @ (x + 0.5 * h * k1) + fdm + pm
        k3 = a @ (x + 0.5 * h * k2) + fdm + pm
        k4 = a @ (x + h * k3) + fd1 + p1
        xn = x + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if not np.all(np.isfinite(xn)):
            raise NonFiniteStateError(f"state left the finite range at t = {t0 + (j + 1) * h:.6g}")
        xs[k + j + 1] = xn
    return GridFunction(t0, step, xs[k:])


def reference_picard(spec, psi_solution, theta, candidate, alpha):
    """Propagated value and trapezoid quadrature advanced one step at a time."""
    g = candidate
    a_idx = g.index_at(alpha)
    k = round(spec.delay / g.step)
    n, h, f = len(g), g.step, spec.nonlinearity
    e_step = expm(spec.matrix * h)
    delayed = slice(a_idx - k, n - k)
    inhomo = f(g.samples[delayed] + psi_solution.samples[delayed]) \
        - f(psi_solution.samples[delayed]) + theta.samples[a_idx:]
    damped = inhomo @ e_step.T
    out = np.array(g.samples, copy=True)
    v = g.samples[a_idx].copy()
    integral = np.zeros(spec.dim)
    for j in range(n - 1 - a_idx):
        v = e_step @ v
        integral = e_step @ integral + 0.5 * h * (damped[j] + inhomo[j + 1])
        out[a_idx + 1 + j] = v + integral
    return GridFunction(g.t_start, g.step, out)


def assert_matches_reference(got, ref):
    np.testing.assert_array_equal(got.times(), ref.times())
    scale = max(1.0, float(np.abs(ref.samples).max()))
    assert np.abs(got.samples - ref.samples).max() <= 1e-12 * scale


def stable_matrix(entries, margin):
    """Shift a square matrix so its spectral abscissa is -margin."""
    a = np.asarray(entries, dtype=float)
    abscissa = np.linalg.eigvals(a).real.max()
    return a - (abscissa + margin) * np.eye(len(a))


class TestStabilityConstants:
    def test_negative_identity_exact(self):
        sc = stability_constants(-np.eye(3))
        assert sc.mode == "exact"
        assert sc.decay_rate == pytest.approx(1.0, abs=1e-12)
        assert sc.amplitude == pytest.approx(1.0, abs=1e-9)

    def test_demo_matrix_eigenvalues(self):
        eigs = np.linalg.eigvals(catalog.delay_demo_matrix())
        expected = {complex(-2.0, math.sqrt(6.0)), complex(-2.0, -math.sqrt(6.0))}
        for e in eigs:
            assert min(abs(e - x) for x in expected) <= 1e-9

    def test_demo_matrix_exact_mode(self):
        sc = stability_constants(catalog.delay_demo_matrix())
        assert sc.mode == "exact"
        assert sc.decay_rate == pytest.approx(2.0, abs=1e-12)
        assert sc.amplitude == pytest.approx(EXACT_N, abs=1e-9)
        assert sc.grid_slack >= -1e-10

    def test_unstable_matrix_rejected(self):
        with pytest.raises(StabilityError):
            stability_constants(np.array([[0.1, 0.0], [0.0, -1.0]]))

    def test_fit_mode_backs_off_rate(self):
        a = catalog.delay_demo_matrix()
        sc = stability_constants(a, lambda_fraction=0.9, mode="fit")
        assert sc.mode == "fit"
        assert sc.decay_rate == pytest.approx(1.8, abs=1e-9)
        assert sc.amplitude >= 1.0
        assert verify_decay_bound(a, sc.amplitude, sc.decay_rate) >= -1e-10

    def test_defective_matrix_falls_back_to_fit(self):
        a = np.array([[-1.0, 1.0], [0.0, -1.0]])
        sc = stability_constants(a)
        assert sc.mode == "fit"
        assert sc.decay_rate == pytest.approx(0.9, abs=1e-9)
        assert verify_decay_bound(a, sc.amplitude, sc.decay_rate) >= -1e-10


class TestAssumptions:
    def test_demo_margin(self):
        spec = demo_spec()
        sc = stability_constants(spec.matrix)
        report = check_assumptions_A(spec, sc)
        assert report.a1_pass and report.a2_pass and report.a3_pass
        assert 0.8090 <= report.margin <= 0.8100

    def test_zero_lipschitz_margin_equals_rate(self):
        spec = DelaySystemSpec(catalog.delay_demo_matrix(), 0.2,
                               Nonlinearity.zero(2), zero_forcing)
        sc = stability_constants(spec.matrix)
        assert contraction_margin(spec, sc) == pytest.approx(sc.decay_rate, abs=1e-12)

    def test_huge_delay_fails_margin(self):
        spec = demo_spec(tau=30.0)
        sc = stability_constants(spec.matrix)
        report = check_assumptions_A(spec, sc)
        assert report.margin < 0.0
        assert not report.a3_pass

    def test_lying_constants_detected(self):
        def f(x):
            x = np.asarray(x, dtype=float)
            return np.tanh(x)
        liar = Nonlinearity(f, bound=0.1, lipschitz=0.05, name="liar")
        spec = DelaySystemSpec(-np.eye(2), 0.5, liar, zero_forcing)
        sc = stability_constants(spec.matrix)
        report = check_assumptions_A(spec, sc)
        assert not report.a1_pass
        assert not report.a2_pass


class TestIntegrateMos:
    def test_pure_linear_matches_matrix_exponential(self):
        a = catalog.delay_demo_matrix()
        spec = DelaySystemSpec(a, 0.2, Nonlinearity.zero(2), zero_forcing)
        x0 = np.array([0.7, -0.4])
        history = constant_history(x0, 0.0, 0.2, 0.2 / 32.0)
        traj = integrate_mos(spec, history, 10.0, 0.2 / 32.0)
        sc = stability_constants(a)
        for t in (0.5, 1.0, 3.0, 7.0, 10.0):
            exact = expm(a * t) @ x0
            assert np.linalg.norm(traj.value_at(t) - exact) <= 5e-9
            bound = sc.amplitude * math.exp(-2.0 * t) * np.linalg.norm(x0)
            assert np.linalg.norm(traj.value_at(t)) <= bound * (1.0 + 1e-9)

    def test_constant_forcing_steady_state(self):
        c = np.array([0.8, -0.3])

        def forcing(t):
            t = np.asarray(t, dtype=float)
            return np.broadcast_to(c, t.shape + (2,))

        spec = DelaySystemSpec(-np.eye(2), 0.5, Nonlinearity.zero(2), forcing)
        history = constant_history(np.array([2.0, 2.0]), 0.0, 0.5, 0.0625)
        traj = integrate_mos(spec, history, 25.0, 0.0625)
        assert np.linalg.norm(traj.value_at(25.0) - c) <= 1e-6

    def test_step_halving_is_fourth_order(self):
        def forcing(t):
            t = np.asarray(t, dtype=float)
            return np.stack([np.sin(t), np.cos(0.7 * t)], axis=-1)

        spec = demo_spec(forcing)
        hist = lambda s: constant_history(np.array([0.3, -0.2]), 0.0, 0.2, s)
        ref = integrate_mos(spec, hist(0.2 / 64.0), 6.0, 0.2 / 64.0)
        coarse = integrate_mos(spec, hist(0.2 / 8.0), 6.0, 0.2 / 8.0)
        finer = integrate_mos(spec, hist(0.2 / 16.0), 6.0, 0.2 / 16.0)
        e1 = np.linalg.norm(coarse.samples - ref.samples[::8], axis=1).max()
        e2 = np.linalg.norm(finer.samples - ref.samples[::4], axis=1).max()
        assert 9.0 <= e1 / e2 <= 28.0

    def test_step_must_divide_delay(self):
        spec = demo_spec()
        with pytest.raises(DomainError):
            history = constant_history(np.zeros(2), 0.0, 0.2, 0.03)
            integrate_mos(spec, history, 1.0, 0.03)

    def test_history_must_match_step(self):
        spec = demo_spec()
        history = constant_history(np.zeros(2), 0.0, 0.2, 0.2 / 16.0)
        with pytest.raises(DomainError):
            integrate_mos(spec, history, 1.0, 0.2 / 32.0)

    def test_residuals_small(self):
        spec = demo_spec(lambda t: np.stack([np.sin(np.asarray(t)),
                                             0.5 * np.cos(np.asarray(t))], axis=-1))
        step = 0.2 / 32.0
        history = constant_history(np.array([0.1, 0.1]), 0.0, 0.2, step)
        traj = integrate_mos(spec, history, 5.0, step)
        res = step_residuals(spec, traj, history)
        assert res.max() <= 1e-8

    @pytest.mark.parametrize("k", [4, 5, 32])
    def test_midpoints_bit_identical_to_per_node_stencil(self, k):
        xs = np.random.default_rng(k).standard_normal((4 * k + 1, 2))
        for n in range(k, 4 * k + 1):
            if n % k in (1, 2):
                continue  # no forward stencil fits there; the per-node form indexes past the end
            expected = np.array([_reference_midpoint(xs, j, k, n) for j in range(n)])
            np.testing.assert_array_equal(_segment_midpoints(xs[:n + 1], k), expected)


class TestBlockedIntegrator:
    def test_demo_forcing(self):
        filt = catalog.function_source(catalog.DEFAULT_SEED, catalog.DEFAULT_BURN_IN, -4.0, 21.0)
        step = 0.2 / 32.0
        history = constant_history(np.zeros(2), -3.0, 0.2, step)
        for forcing in (catalog.combined_forcing(filt), catalog.recurrent_forcing(filt)):
            spec = demo_spec(forcing)
            assert_matches_reference(integrate_mos(spec, history, 20.0, step),
                                     reference_mos(spec, history, 20.0, step))

    def test_random_bounded_histories(self):
        filt = catalog.function_source(0.41, 1000, -2.0, 14.0)
        spec = demo_spec(catalog.combined_forcing(filt))
        step = 0.2 / 32.0
        rng = np.random.default_rng(41)
        for _ in range(2):
            history = GridFunction(-0.2, step, rng.uniform(-1, 1, (33, 2)))
            assert_matches_reference(integrate_mos(spec, history, 12.0, step),
                                     reference_mos(spec, history, 12.0, step))

    def test_three_dimensional_tanh(self):
        a = np.array([[-2.0, 1.0, 0.0], [0.0, -1.5, 0.5], [0.3, 0.0, -1.0]])
        spec = DelaySystemSpec(a, 0.5, catalog.tanh_nonlinearity(3, 0.3), wave_forcing(3))
        step = 0.5 / 20.0
        history = GridFunction(-0.5, step, np.random.default_rng(5).uniform(-2, 2, (21, 3)))
        assert_matches_reference(integrate_mos(spec, history, 15.0, step),
                                 reference_mos(spec, history, 15.0, step))

    @pytest.mark.parametrize("extra", [1, 2, 3, 17, 31])
    def test_window_not_a_multiple_of_the_delay(self, extra):
        spec = demo_spec(wave_forcing(2))
        step = 0.2 / 32.0
        history = GridFunction(-0.2, step, np.random.default_rng(extra).uniform(-1, 1, (33, 2)))
        t_end = (3 * 32 + extra) * step
        blocked = integrate_mos(spec, history, t_end, step)
        assert len(blocked) == 3 * 32 + extra + 1
        assert_matches_reference(blocked, reference_mos(spec, history, t_end, step))
        res = step_residuals(spec, blocked, history)
        assert res.shape == (3 * 32 + extra,) and np.all(np.isfinite(res))

    @settings(max_examples=25, deadline=None)
    @given(k=st.integers(4, 40),
           entries=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
           margin=st.floats(0.2, 3.0),
           segments=st.integers(1, 4), extra=st.integers(0, 39),
           seed=st.integers(0, 2 ** 16))
    def test_random_stable_systems(self, k, entries, margin, segments, extra, seed):
        a = stable_matrix(np.reshape(entries, (2, 2)), margin)
        tau = 0.4
        step = tau / k
        spec = DelaySystemSpec(a, tau, catalog.delay_demo_nonlinearity(), wave_forcing(2))
        history = GridFunction(-tau, step,
                               np.random.default_rng(seed).uniform(-1, 1, (k + 1, 2)))
        t_end = (segments * k + extra % k) * step
        assert_matches_reference(integrate_mos(spec, history, t_end, step),
                                 reference_mos(spec, history, t_end, step))

    def test_two_nonlinearity_calls_per_segment(self):
        calls = []
        base = catalog.delay_demo_nonlinearity()

        def counted(x):
            calls.append(x.shape)
            return base.func(x)

        spec = DelaySystemSpec(catalog.delay_demo_matrix(), 0.2,
                               Nonlinearity(counted, base.bound, base.lipschitz),
                               wave_forcing(2))
        step = 0.2 / 32.0
        n_steps = 1000
        integrate_mos(spec, constant_history(np.zeros(2), 0.0, 0.2, step),
                      n_steps * step, step)
        assert len(calls) <= 2 * math.ceil(n_steps / 32) + 2

    @pytest.mark.parametrize("case", ["unstable", "overflowing_stencil"])
    def test_non_finite_state_names_the_reference_time(self, case):
        tau, k = 1.0, 4
        step = tau / k
        if case == "unstable":
            # slow growth, so no RK4 stage overflows before the state itself does
            a = np.diag([0.15, 0.1])
            nl = catalog.delay_demo_nonlinearity()
            history = constant_history(np.array([1e307, -1e307]), 0.0, tau, step)
            t_end = 40.0
        else:
            # the cubic stencil overflows on a finite history, and softsign maps the
            # infinite midpoint to nan, inside the first segment but past its start
            a = -np.eye(2)
            nl = Nonlinearity(lambda x: x / (1.0 + np.abs(x)), bound=math.sqrt(2.0),
                              lipschitz=1.0, name="softsign")
            history = GridFunction(0.0, step, np.outer(np.linspace(0.0, 2.8e307, k + 1),
                                                       [1.0, 0.5]))
            t_end = 5.0
        spec = DelaySystemSpec(a, tau, nl, zero_forcing)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteStateError) as ref:
                reference_mos(spec, history, t_end, step)
            with pytest.raises(NonFiniteStateError) as got:
                integrate_mos(spec, history, t_end, step)
        assert str(got.value) == str(ref.value)
        t_bad = float(str(ref.value).rsplit("= ", 1)[1])
        assert round((t_bad - history.t_end) / step) % k != 0


class TestBoundedSolution:
    def test_zero_system_zero_solution(self):
        spec = DelaySystemSpec(-np.eye(2), 0.5, Nonlinearity.zero(2), zero_forcing)
        sc = stability_constants(spec.matrix)
        sol = bounded_solution(spec, sc, (0.0, 5.0), 0.0625)
        assert sol.sup_norm() == 0.0

    def test_demo_sup_bound(self, delay_demo):
        sc = delay_demo.constants
        spec = delay_demo.spec_combined
        bound = sc.amplitude * (spec.nonlinearity.bound + delay_demo.m_phi) / sc.decay_rate
        assert delay_demo.phi_solution.sup_norm() <= bound + 1e-8

    def test_history_independence(self):
        spec = demo_spec(lambda t: np.stack([np.sin(np.asarray(t)),
                                             np.cos(np.asarray(t))], axis=-1))
        step = 0.2 / 32.0
        rng = np.random.default_rng(4)
        burn = 20.0
        hist0 = constant_history(np.zeros(2), -burn, 0.2, step)
        rand_vals = rng.uniform(-1, 1, (len(hist0), 2))
        hist1 = GridFunction(hist0.t_start, step, rand_vals)
        s0 = integrate_mos(spec, hist0, 10.0, step).restrict(0.0, 10.0)
        s1 = integrate_mos(spec, hist1, 10.0, step).restrict(0.0, 10.0)
        assert np.linalg.norm(s0.samples - s1.samples, axis=1).max() < 1e-8

    def test_margin_required(self):
        spec = demo_spec(tau=30.0)
        sc = stability_constants(spec.matrix)
        with pytest.raises(AssumptionError):
            bounded_solution(spec, sc, (0.0, 1.0), 30.0 / 150)


class TestProofConstants:
    def test_specialisation_without_nonlinearity(self):
        spec = DelaySystemSpec(catalog.delay_demo_matrix(), 0.2,
                               Nonlinearity(lambda x: np.zeros_like(x),
                                            bound=1e-300, lipschitz=0.0), zero_forcing)
        sc = stability_constants(spec.matrix)
        pc = proof_constants(spec, sc, 1.5, 0.5)
        n, lam = sc.amplitude, sc.decay_rate
        assert pc.k2 == pytest.approx(n / lam, rel=1e-12)
        assert pc.k1 == pytest.approx(n * n * 2.0 / lam, rel=1e-12)

    def test_linear_in_forcing_sups(self):
        spec = DelaySystemSpec(catalog.delay_demo_matrix(), 0.2,
                               Nonlinearity(lambda x: np.zeros_like(x),
                                            bound=1e-300, lipschitz=0.0), zero_forcing)
        sc = stability_constants(spec.matrix)
        one = proof_constants(spec, sc, 1.0, 1.0)
        two = proof_constants(spec, sc, 2.0, 2.0)
        assert two.k1 == pytest.approx(2.0 * one.k1, rel=1e-12)

    def test_demo_constants_positive(self, delay_demo):
        assert delay_demo.proof.k1 > 0
        assert delay_demo.proof.k2 > 0
        assert delay_demo.proof.m0 > 0

    def test_failed_margin_raises(self):
        spec = demo_spec(tau=30.0)
        sc = stability_constants(spec.matrix)
        with pytest.raises(AssumptionError):
            proof_constants(spec, sc, 1.0, 1.0)


class TestPicard:
    def test_pure_homogeneous_propagation(self):
        a = catalog.delay_demo_matrix()
        spec = DelaySystemSpec(a, 0.2, Nonlinearity.zero(2), zero_forcing)
        step = 0.2 / 32.0
        n = 641
        times = step * np.arange(n)
        psi = GridFunction(0.0, step, np.zeros((n, 2)))
        theta = GridFunction(0.0, step, np.zeros((n, 2)))
        rng = np.random.default_rng(8)
        cand = GridFunction(0.0, step, rng.uniform(-1, 1, (n, 2)))
        alpha = times[160]
        out = picard_apply(spec, psi, theta, cand, alpha)
        g_alpha = cand.samples[160]
        for j in (200, 320, 640):
            exact = expm(a * (times[j] - alpha)) @ g_alpha
            assert np.linalg.norm(out.samples[j] - exact) <= 1e-9
        np.testing.assert_array_equal(out.samples[:161], cand.samples[:161])

    def test_fixed_point_property(self, delay_demo):
        d = delay_demo
        cand = GridFunction(d.phi_solution.t_start, d.phi_solution.step,
                            d.phi_solution.samples - d.psi_solution.samples)
        image = picard_apply(d.spec_combined, d.psi_solution, d.theta_grid, cand, d.alpha)
        gap = np.linalg.norm(image.samples - cand.samples, axis=1).max()
        assert gap <= 1e-6

    def test_contraction_inequality(self, delay_demo):
        d = delay_demo
        base = d.phi_solution.samples - d.psi_solution.samples
        a_idx = d.phi_solution.index_at(d.alpha)
        rng = np.random.default_rng(17)
        bound = d.constants.amplitude * d.spec_combined.nonlinearity.lipschitz \
            / d.constants.decay_rate + 0.05
        for _ in range(3):
            n1, n2 = (rng.uniform(-0.5, 0.5, base.shape) for _ in range(2))
            n1[:a_idx + 1] = 0.0
            n2[:a_idx + 1] = 0.0
            g1 = GridFunction(d.phi_solution.t_start, d.phi_solution.step, base + n1)
            g2 = GridFunction(d.phi_solution.t_start, d.phi_solution.step, base + n2)
            t1 = picard_apply(d.spec_combined, d.psi_solution, d.theta_grid, g1, d.alpha)
            t2 = picard_apply(d.spec_combined, d.psi_solution, d.theta_grid, g2, d.alpha)
            num = np.linalg.norm(t1.samples - t2.samples, axis=1).max()
            den = np.linalg.norm(g1.samples - g2.samples, axis=1).max()
            assert num <= bound * den


    def test_matches_reference_on_demo(self, delay_demo):
        d = delay_demo
        cand = GridFunction(d.phi_solution.t_start, d.phi_solution.step,
                            d.phi_solution.samples - d.psi_solution.samples)
        args = (d.spec_combined, d.psi_solution, d.theta_grid, cand, d.alpha)
        assert_matches_reference(picard_apply(*args), reference_picard(*args))

    @pytest.mark.parametrize("n", [3 * 20 + 1, 3 * 20 + 8, 3 * 20 + 13])
    def test_matches_reference_three_dimensional(self, n):
        a = np.array([[-2.0, 1.0, 0.0], [0.0, -1.5, 0.5], [0.3, 0.0, -1.0]])
        spec = DelaySystemSpec(a, 0.5, catalog.tanh_nonlinearity(3, 0.3), zero_forcing)
        step = 0.5 / 20.0
        rng = np.random.default_rng(n)
        psi, theta, cand = (GridFunction(0.0, step, rng.uniform(-1, 1, (n, 3)))
                            for _ in range(3))
        args = (spec, psi, theta, cand, 25 * step)
        assert_matches_reference(picard_apply(*args), reference_picard(*args))


class TestConvergenceCheck:
    def test_identical_solutions_trivially_inside(self, delay_demo):
        d = delay_demo
        report = convergence_check(d.phi_solution, d.phi_solution, d.constants,
                                   d.proof, 0.2, d.alpha, d.gamma, d.epsilon)
        assert report.envelope_ok
        assert report.tail_sup == 0.0

    def test_envelope_value_at_alpha(self, delay_demo):
        d = delay_demo
        # a synthetic difference exactly at the envelope start value must pass,
        # anything above it by more than the slack must fail
        level = d.proof.k1 + d.proof.k2 * d.gamma * d.epsilon
        times = d.phi_solution.times()
        peak = np.zeros_like(d.phi_solution.samples)
        j = d.phi_solution.index_at(d.alpha)
        peak[j, 0] = level
        inside = GridFunction(d.phi_solution.t_start, d.phi_solution.step,
                              d.psi_solution.samples + peak)
        rep = convergence_check(inside, d.psi_solution, d.constants, d.proof,
                                0.2, d.alpha, d.gamma, d.epsilon)
        assert rep.envelope_ok
        peak[j, 0] = level + 1e-3
        outside = GridFunction(d.phi_solution.t_start, d.phi_solution.step,
                               d.psi_solution.samples + peak)
        rep = convergence_check(outside, d.psi_solution, d.constants, d.proof,
                                0.2, d.alpha, d.gamma, d.epsilon)
        assert not rep.envelope_ok
        assert rep.worst_time == pytest.approx(d.alpha, abs=1e-9)

    def test_gamma_ceiling_enforced(self, delay_demo):
        d = delay_demo
        with pytest.raises(DomainError):
            convergence_check(d.phi_solution, d.psi_solution, d.constants, d.proof,
                              0.2, d.alpha, 1.0 / (d.proof.k1 + d.proof.k2), d.epsilon)
