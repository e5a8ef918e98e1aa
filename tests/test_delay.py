import ast
import dataclasses
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from updyn import catalog, delay, lanes, nonlinearity
from updyn.chaos import GridFunction
from updyn.delay import (DelaySystemSpec, _midpoint_stencils, _midpoints, bounded_solution,
                         constant_history, convergence_check, integrate_mos, picard_apply,
                         proof_constants, stability_constants)
from updyn.errors import (ArgumentError, AssumptionError, DomainError, NonFiniteStateError,
                          StabilityError)
from updyn.nonlinearity import Nonlinearity, check_assumptions

from test_inputs import ODD_MATRICES

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
    xs[:k + 1] = history.values
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


def step_residuals(spec, trajectory, history):
    """Per-step defect of the integrated equation, re-evaluated by Simpson quadrature."""
    k = round(spec.delay / trajectory.step)
    xs = np.vstack([history.values[:-1], trajectory.values])
    n_steps, h = len(trajectory) - 1, trajectory.step
    forcing = spec.forcing(trajectory.t_start + 0.5 * h * np.arange(2 * n_steps + 1))
    a, f = spec.matrix, spec.nonlinearity
    mids = _midpoints(xs, _midpoint_stencils(len(xs) - 1, k))

    node = slice(k, k + n_steps)
    rhs0 = xs[node] @ a.T + f(xs[:n_steps]) + forcing[0::2][:-1]
    rhs1 = xs[k + 1:] @ a.T + f(xs[1:n_steps + 1]) + forcing[0::2][1:]
    rhsm = mids[node] @ a.T + f(mids[:n_steps]) + forcing[1::2]
    simpson = (h / 6.0) * (rhs0 + 4.0 * rhsm + rhs1)
    return np.linalg.norm(xs[k + 1:] - xs[node] - simpson, axis=1)


def expm_excess(a, sc, points=1000):
    """Largest |exp(At)|_2 exp(lambda t) / N - 1 at ``points`` even times in (0, 50/lambda],
    with exp(At) from scipy's ``expm``: at most 0 where |exp(At)| <= N exp(-lambda t)."""
    t = (50.0 / sc.decay_rate) * np.arange(1, points + 1) / points
    norms = np.linalg.norm(expm(np.asarray(a, dtype=float) * t[:, None, None]), 2, axis=(1, 2))
    return float((norms * np.exp(sc.decay_rate * t)).max() / sc.amplitude - 1.0)


def reference_picard(spec, psi_solution, theta, candidate, alpha):
    """Propagated value and trapezoid quadrature advanced one step at a time."""
    g = candidate
    a_idx = g.index_at(alpha)
    k = round(spec.delay / g.step)
    n, h, f = len(g), g.step, spec.nonlinearity
    e_step = expm(spec.matrix * h)
    delayed = slice(a_idx - k, n - k)
    inhomo = f(g.values[delayed] + psi_solution.values[delayed]) \
        - f(psi_solution.values[delayed]) + theta.values[a_idx:]
    damped = inhomo @ e_step.T
    out = np.array(g.values, copy=True)
    v = g.values[a_idx].copy()
    integral = np.zeros(spec.dim)
    for j in range(n - 1 - a_idx):
        v = e_step @ v
        integral = e_step @ integral + 0.5 * h * (damped[j] + inhomo[j + 1])
        out[a_idx + 1 + j] = v + integral
    return GridFunction(g.t_start, g.step, out)


def assert_matches_reference(got, ref):
    np.testing.assert_array_equal(got.times(), ref.times())
    scale = max(1.0, float(np.abs(ref.values).max()))
    assert np.abs(got.values - ref.values).max() <= 1e-12 * scale


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
        assert expm_excess(catalog.delay_demo_matrix(), sc) <= 1e-9

    def test_unstable_matrix_rejected(self):
        with pytest.raises(StabilityError):
            stability_constants(np.array([[0.1, 0.0], [0.0, -1.0]]))

    def test_exponential_past_the_float_range_rejected(self):
        with pytest.raises(StabilityError, match="not finite"):
            stability_constants(np.array([[-1e200, 1e200], [-1e200, -1e200]]))

    def test_defective_matrix_takes_the_lyapunov_certificate(self):
        a = np.array([[-1.0, 1.0], [0.0, -1.0]])
        sc = stability_constants(a)
        assert sc.mode == "lyapunov"
        assert sc.decay_rate == pytest.approx(0.9, abs=1e-12)
        assert sc.amplitude == pytest.approx(10.0990195, rel=1e-7)
        assert expm_excess(a, sc) <= 1e-9

    def test_d6_bound_holds_to_fifty_time_constants(self):
        # D6: |exp(At)| exp(0.09 t) peaks at t = 100, far past any short verification grid
        a = np.array([[-0.1, 1.0], [0.0, -0.1]])
        sc = stability_constants(a)
        assert sc.mode == "lyapunov" and sc.amplitude == pytest.approx(100.01, rel=1e-6)
        assert expm_excess(a, sc) <= 1e-9

    @pytest.mark.parametrize("a, reason", [([[-1.0, 1e8], [0.0, -1.0]], "residual 28.8"),
                                           ([[-1.0, 1e300], [0.0, -1.0]], "Singular matrix")])
    def test_uncertifiable_matrix_rejected(self, a, reason):
        with pytest.raises(StabilityError, match=reason):
            stability_constants(np.array(a))

    def test_certificate_refuses_a_rate_past_the_abscissa(self):
        # A + 1.5 I has eigenvalue 0.5: P = diag(-1, 1/3) solves the equation with residual 0
        with pytest.raises(StabilityError, match="not positive definite"):
            delay._lyapunov_amplitude(np.diag([-1.0, -3.0]), 1.5)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(dim=st.sampled_from([2, 3]), data=st.data())
    def test_drawn_bounds_hold_against_scipy(self, dim, data):
        # dense draws, and upper-triangular ones with a near-repeated diagonal: near-Jordan
        entry = st.floats(-3.0, 3.0)
        a = np.array(data.draw(st.lists(entry, min_size=dim * dim, max_size=dim * dim)))
        a = a.reshape(dim, dim)
        if data.draw(st.booleans()):
            spread = data.draw(st.sampled_from([0.0, 1e-12, 1e-6, 1e-2]))
            a = np.triu(a, 1) + np.diag(spread * np.arange(dim))
        a = stable_matrix(a, data.draw(st.floats(0.05, 2.0)))
        try:
            sc = stability_constants(a)
        except StabilityError:
            return
        assert expm_excess(a, sc, points=200) <= 1e-9


# exp(A h) is checked on the odd matrices of the config fuzz and on: the matrix of D6, an
# off-diagonal near the float limit, a Jordan block, a nearly defective matrix (scipy's
# own expm is 1.2e-10 off there at h = 1) and a lower-triangular one
EXPM_MATRICES = [*ODD_MATRICES, [[-0.1, 1.0], [0.0, -0.1]], [[-1.0, 1e300], [0.0, -1.0]],
                 [[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, -1.0]],
                 [[-1.0, 1e8], [0.0, -1.0000001]],
                 [[-1.0, 0.0, 0.0], [2.0, -0.5, 0.0], [0.3, 5.0, -2.0]]]


def assert_close_to_expm(a, rtol):
    got, ref = delay._expm(a), expm(a)
    if not np.isfinite(ref).all():
        assert not np.isfinite(got).all()
    else:
        assert np.abs(got - ref).max() <= rtol * np.abs(ref).max()


class TestExpm:
    @pytest.mark.parametrize("h", [0.2 / 32, 0.05])
    def test_demo_matrix_matches_scipy(self, h):
        assert_close_to_expm(catalog.delay_demo_matrix() * h, 1e-13)

    @pytest.mark.parametrize("h", [0.00625, 0.05, 1.0])
    @pytest.mark.parametrize("a", EXPM_MATRICES, ids=range(len(EXPM_MATRICES)))
    def test_odd_matrices_match_scipy(self, a, h):
        with np.errstate(over="ignore", invalid="ignore"):
            assert_close_to_expm(np.array(a) * h, 1e-9)

    def test_triangular_keeps_a_huge_off_diagonal(self):
        # without the exact diagonal and first off-diagonal the squarings give 0 here
        h = 0.05
        got = delay._expm(np.array([[-1.0, 1e300], [0.0, -1.0]]) * h)
        assert got[0, 1] == pytest.approx(1e300 * h * math.exp(-h), rel=1e-14)
        assert got[1, 0] == 0.0

    def test_nearly_defective_to_the_divided_difference(self):
        # exp(A) of [[x, b], [0, y]] has b (e^y - e^x) / (y - x) off the diagonal
        x, y, b = -1.0, -1.0000001, 1e8
        got = delay._expm(np.array([[x, b], [0.0, y]]))
        exact = b * math.exp((x + y) / 2) * math.sinh((y - x) / 2) / ((y - x) / 2)
        assert got[0, 1] == pytest.approx(exact, rel=1e-15)

    @pytest.mark.parametrize("a", [catalog.delay_demo_matrix().tolist()] + EXPM_MATRICES,
                             ids=["demo", *range(len(EXPM_MATRICES))])
    def test_stability_constants_as_with_scipy(self, a):
        # each matrix is refused, or its bound holds against scipy's expm
        try:
            sc = stability_constants(np.array(a))
        except StabilityError:
            return
        assert expm_excess(a, sc) <= 1e-9


class TestAssumptions:
    def test_demo_margin(self):
        spec = demo_spec()
        report = check_assumptions(spec)
        assert report.spot.bound_ok and report.spot.lipschitz_ok and report.contracts
        assert 0.8090 <= report.margin <= 0.8100

    def test_zero_lipschitz_margin_equals_rate(self):
        spec = DelaySystemSpec(catalog.delay_demo_matrix(), 0.2,
                               Nonlinearity.zero(2), zero_forcing)
        sc = stability_constants(spec.matrix)
        assert spec.margin == pytest.approx(sc.decay_rate, abs=1e-12)

    def test_huge_delay_fails_margin(self):
        spec = demo_spec(tau=30.0)
        report = check_assumptions(spec)
        assert report.margin < 0.0
        assert not report.contracts

    def test_huge_delay_margin_is_minus_infinity(self):
        spec = demo_spec(tau=1e300)
        sc = stability_constants(spec.matrix)
        assert spec.margin == -math.inf
        assert not check_assumptions(spec).contracts
        unforced = DelaySystemSpec(spec.matrix, 1e300, Nonlinearity.zero(2), zero_forcing)
        assert unforced.margin == sc.decay_rate

    def test_lying_constants_detected(self):
        def f(x):
            x = np.asarray(x, dtype=float)
            return np.tanh(x)
        liar = Nonlinearity(f, bound=0.1, lipschitz=0.05, name="liar")
        spec = DelaySystemSpec(-np.eye(2), 0.5, liar, zero_forcing)
        report = check_assumptions(spec)
        assert not report.spot.bound_ok
        assert not report.spot.lipschitz_ok


# the spot check's cases: name, dimension, tanh scale
SPOT_CASES = [("arctan_arccot", 2, 1.0), ("sin_cos", 2, 1.0), ("zero", 2, 1.0),
              *[("tanh", dim, scale) for dim in (1, 2, 3, 4) for scale in (0.1, 1.0, 1e6)]]


def reference_spot_pairs(dim):
    """The pairs the spot check drew before its points were fixed: 3 * standard normals
    from numpy's default_rng(1404)."""
    rng = np.random.default_rng(1404)
    return 3.0 * rng.standard_normal((1000, dim)), 3.0 * rng.standard_normal((1000, dim))


def spot_verdicts(nl, dim, pairs=None):
    """(bound_ok, lipschitz_ok) of the spot check, on the reference pairs if asked."""
    if pairs is None:
        spot = nonlinearity.spot_check(nl, dim)
    else:
        with mock.patch.object(nonlinearity, "spot_pairs", pairs):
            spot = nonlinearity.spot_check(nl, dim)
    return spot.bound_ok, spot.lipschitz_ok


class TestSpotPairs:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_fixed_normal_pairs(self, dim):
        x, y = nonlinearity.spot_pairs(dim)
        assert x.shape == y.shape == (nonlinearity.SPOT_PAIRS, dim)
        assert np.isfinite(x).all() and np.isfinite(y).all()
        z = np.concatenate([x, y]) / nonlinearity.SPOT_SCALE
        assert abs(z.mean()) < 0.05 and abs(z.std() - 1.0) < 0.05
        assert all((a == b).all() for a, b in zip((x, y), nonlinearity.spot_pairs(dim)))

    @pytest.mark.parametrize("name, dim, scale", SPOT_CASES)
    def test_true_constants_pass(self, name, dim, scale):
        nl = catalog.NONLINEARITIES[name](dim, scale)
        assert spot_verdicts(nl, dim) == spot_verdicts(nl, dim, reference_spot_pairs) == (
            True, True)

    @pytest.mark.parametrize("name, dim, scale", SPOT_CASES)
    @pytest.mark.parametrize("field", ["bound", "lipschitz"])
    @pytest.mark.parametrize("factor", [0.5, 0.9])
    def test_catches_what_the_random_pairs_catch(self, name, dim, scale, field, factor):
        nl = catalog.NONLINEARITIES[name](dim, scale)
        nl = dataclasses.replace(nl, **{field: factor * getattr(nl, field)})
        fixed, drawn = spot_verdicts(nl, dim), spot_verdicts(nl, dim, reference_spot_pairs)
        assert all(f <= d for f, d in zip(fixed, drawn))
        if field == "bound" and name != "zero":
            assert not fixed[0]


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
        e1 = np.linalg.norm(coarse.values - ref.values[::8], axis=1).max()
        e2 = np.linalg.norm(finer.values - ref.values[::4], axis=1).max()
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
            np.testing.assert_array_equal(_midpoints(xs[:n + 1], _midpoint_stencils(n, k)),
                                          expected)

    @pytest.mark.parametrize("k", [4, 5, 32])
    def test_midpoints_keep_the_bits_of_extreme_values(self, k):
        special = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 2.8e307,
                   5e-324, 1.0, -3.5]
        xs = np.random.default_rng(k).choice(special, (4 * k + 1, 2))
        with np.errstate(all="ignore"):
            for n in range(k, 4 * k + 1):
                if n % k in (1, 2):
                    continue
                expected = np.array([_reference_midpoint(xs, j, k, n) for j in range(n)])
                stencils = _midpoint_stencils(n, k)
                batched = _midpoints(np.stack([xs[:n + 1], xs[:n + 1][::-1]]), stencils)
                for got in (_midpoints(xs[:n + 1], stencils), batched[0]):
                    # any NaN will do: its sign bit may differ between vector loops
                    assert np.array_equal(np.isnan(got), np.isnan(expected))
                    same = got.view(np.uint64) == expected.view(np.uint64)
                    assert np.all(same | np.isnan(expected))


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

    @settings(max_examples=25, deadline=None)
    @given(dim=st.sampled_from([2, 3]), k=st.integers(4, 40), runs=st.integers(1, 3),
           entries=st.lists(st.floats(-3.0, 3.0), min_size=9, max_size=9),
           margin=st.floats(0.2, 3.0), segments=st.integers(0, 3), extra=st.integers(0, 38),
           seed=st.integers(0, 2 ** 16))
    def test_every_run_of_a_batch_matches_the_step_loop(self, dim, k, runs, entries, margin,
                                                        segments, extra, seed):
        a = stable_matrix(np.reshape(entries[:dim * dim], (dim, dim)), margin)
        tau = 0.4
        step = tau / k
        nl = catalog.delay_demo_nonlinearity() if dim == 2 else catalog.tanh_nonlinearity(3, 0.3)
        rng = np.random.default_rng(seed)
        history = GridFunction(-tau, step, rng.uniform(-1, 1, (k + 1, dim)))
        n_steps = segments * k + 1 + extra % (k - 1)  # never a whole number of delays
        t_end = n_steps * step
        specs = []
        for amp, freq, phase in rng.uniform(0.1, 2.0, (runs, 3, dim)):
            def forcing(t, amp=amp, freq=freq, phase=phase):
                return amp * np.sin(np.multiply.outer(np.asarray(t, dtype=float), freq) + phase)
            specs.append(DelaySystemSpec(a, tau, nl, forcing))
        half = history.t_end + 0.5 * step * np.arange(2 * n_steps + 1)
        samples = np.stack([spec.forcing(half) for spec in specs])
        got = integrate_mos(specs[0], history, t_end, step, samples)
        assert len(got) == runs
        for traj, spec in zip(got, specs):
            assert_matches_reference(traj, reference_mos(spec, history, t_end, step))

    @pytest.mark.parametrize("runs", [None, 1, 2, 3])
    def test_one_nonlinearity_call_per_segment_for_all_runs(self, runs):
        calls = []
        base = catalog.delay_demo_nonlinearity()

        def counted(x):
            calls.append(x.shape)
            return base.func(x)

        spec = DelaySystemSpec(catalog.delay_demo_matrix(), 0.2,
                               Nonlinearity(counted, base.bound, base.lipschitz),
                               wave_forcing(2))
        step = 0.2 / 32.0
        n_steps = 1000  # 31 whole segments and one of 8 steps
        history = constant_history(np.zeros(2), 0.0, 0.2, step)
        samples = None
        if runs is not None:
            half = history.t_end + 0.5 * step * np.arange(2 * n_steps + 1)
            samples = np.stack([(r + 1) * spec.forcing(half) for r in range(runs)])
        integrate_mos(spec, history, n_steps * step, step, samples)
        assert len(calls) == 32
        assert calls[0] == (runs or 1, 65, 2) and calls[-1] == (runs or 1, 17, 2)

    @pytest.mark.parametrize("shape, value", [((2, 64, 2), 0.0), ((2, 65), 0.0),
                                              ((0, 65, 2), 0.0), ((2, 65, 2), math.nan)])
    def test_forcing_samples_checked(self, shape, value):
        history = constant_history(np.zeros(2), 0.0, 0.2, 0.2 / 32.0)
        with pytest.raises(DomainError):
            integrate_mos(demo_spec(), history, 0.2, 0.2 / 32.0, np.full(shape, value))

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

    def test_overflowing_block_powers_with_a_finite_state(self):
        # the k-step powers of the RK4 map overflow, and 0 * inf in the block product is nan
        tau = 20.0
        step = tau / 32
        spec = DelaySystemSpec(2000.0 * np.eye(2), tau, Nonlinearity.zero(2), zero_forcing)
        history = constant_history(np.zeros(2), 0.0, tau, step)
        with np.errstate(over="ignore", invalid="ignore"):
            got = integrate_mos(spec, history, 3 * tau, step)
        assert_matches_reference(got, reference_mos(spec, history, 3 * tau, step))
        assert got.sup_norm() == 0.0


def wave_samples(dim, runs, n_steps, step, seed):
    """Half-grid forcing samples of ``runs`` sine waves, shape (runs, 2 n_steps + 1, dim)."""
    amp, freq, phase = np.random.default_rng(seed).uniform(0.1, 2.0, (3, runs, 1, dim))
    half = 0.5 * step * np.arange(2 * n_steps + 1)
    return amp * np.sin(half[:, None] * freq + phase)


def outcome(*args):
    """``integrate_mos``'s trajectories as bits, or the message of its NonFiniteStateError."""
    try:
        with np.errstate(all="ignore"):
            return [traj.values.view(np.uint64).tolist() for traj in integrate_mos(*args)]
    except NonFiniteStateError as err:
        return str(err)


def lanes_off(*args):
    """The oracle: the same integration by the segment loop alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lanes, "WARMUP_CAP", 0)
        return outcome(*args)


def counting_demo_spec(calls, forcing=zero_forcing):
    """The demo system at delay 0.2, its nonlinearity logging each argument's shape to ``calls``."""
    base = catalog.delay_demo_nonlinearity()
    return DelaySystemSpec(catalog.delay_demo_matrix(), 0.2,
                           Nonlinearity(lambda x: calls.append(x.shape) or base.func(x),
                                        base.bound, base.lipschitz), forcing)


@pytest.fixture
def lane_log(monkeypatch):
    """(last exact segment, warm-up reached) of every ``lanes.settle`` call."""
    log, real = [], lanes.settle
    monkeypatch.setattr(lanes, "settle", lambda *a: log.append(real(*a)) or log[-1])
    return log


class TestLockstepLanes:
    """integrate_mos's lanes over a run axis against its segment loop, bit for bit."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(dim=st.sampled_from([2, 3]), k=st.integers(4, 40), runs=st.integers(1, 3),
           entries=st.lists(st.floats(-3.0, 3.0), min_size=9, max_size=9),
           margin=st.floats(0.2, 8.0), warm=st.sampled_from([16, 8, 4, 2]),
           n_lanes=st.integers(0, 6), offset=st.integers(-1, 1), extra=st.integers(0, 39),
           seed=st.integers(0, 2 ** 16))
    def test_lanes_equal_the_segment_loop(self, dim, k, runs, entries, margin, warm, n_lanes,
                                          offset, extra, seed):
        # lengths at and around a round of `n_lanes` lanes, whole segments or not
        a = stable_matrix(np.reshape(entries[:dim * dim], (dim, dim)), margin)
        tau = 1.0
        step = tau / k
        nl = catalog.delay_demo_nonlinearity() if dim == 2 else catalog.tanh_nonlinearity(3, 0.3)
        spec = DelaySystemSpec(a, tau, nl, zero_forcing)
        rng = np.random.default_rng(seed)
        history = GridFunction(-tau, step, rng.uniform(-1, 1, (k + 1, dim)))
        n_steps = max(1, ((n_lanes + 1) * warm + offset) * k + extra % k)
        args = (spec, history, n_steps * step, step, wave_samples(dim, runs, n_steps, step, seed))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lanes, "first_warmup", lambda _: warm)
            got = outcome(*args)
        assert got == lanes_off(*args)

    def test_premise_a_stacked_product_rounds_each_lane_as_the_loop(self):
        # the lanes' (lanes, runs, ...) @ matrix must give each lane the bits of the
        # segment loop's runs-row product, as one BLAS gemm (gemv for one run) per lane does
        rng = np.random.default_rng(22)
        systems = [(catalog.delay_demo_matrix(), 0.2, 32),
                   (stable_matrix(rng.uniform(-3, 3, (3, 3)), 0.5), 0.4, 17)]
        for a, tau, k in systems:
            powers, g = delay._segment_matrices(a, tau / k, k)
            m = len(a)
            for runs in (1, 2, 3):
                for n in (1, 2, 7, 31):
                    b = rng.standard_normal((n, runs, (2 * k + 1) * m))
                    y = rng.standard_normal((n, runs, m))
                    for lanes, rows, matrix in ((b @ g, b, g), (y @ powers, y, powers)):
                        for c in range(n):
                            np.testing.assert_array_equal(lanes[c].view(np.uint64),
                                                          (rows[c] @ matrix).view(np.uint64))

    def test_6_3_length_takes_few_nonlinearity_calls(self, lane_log):
        calls = []
        spec = counting_demo_spec(calls)
        step = 0.2 / 32
        n_steps = 1150 * 32
        history = constant_history(np.zeros(2), -30.0, 0.2, step)
        args = (spec, history, 200.0, step, wave_samples(2, 2, n_steps, step, 63))
        got = outcome(*args)
        # one round of 7 lanes of 128 segments after a warm-up of 128 keeps them all
        assert lane_log == [(1024, 128)]
        assert len(calls) == 2 * 128 + 1150 - 1024 <= 450
        assert got == lanes_off(*args)

    def test_slow_contraction_doubles_the_warm_up(self, lane_log):
        # the linear part alone settles in 64 segments; the delayed tanh slows that down
        spec = DelaySystemSpec(-np.eye(2), 1.0, catalog.tanh_nonlinearity(2, 0.3), zero_forcing)
        step, n_steps = 0.25, 1200 * 4
        assert lanes.first_warmup(delay._segment_matrices(spec.matrix, step, 4)[0][:, -2:]) == 64
        args = (spec, constant_history(np.array([0.5, -0.5]), 0.0, 1.0, step), n_steps * step,
                step, wave_samples(2, 2, n_steps, step, 5))
        got = outcome(*args)
        assert lane_log == [(1152, 128)]
        assert got == lanes_off(*args)

    def test_a_round_keeps_the_lanes_before_its_first_rejection(self, lane_log):
        # tanh saturates under the loud forcing before t = 100 and contracts fast; in
        # the quiet forcing after it, its slope 2 against A = -4 I contracts slowly
        spec = DelaySystemSpec(-4.0 * np.eye(2), 1.0, catalog.tanh_nonlinearity(2, 2.0),
                               zero_forcing)
        step, n_steps = 0.25, 200 * 4
        samples = wave_samples(2, 2, n_steps, step, 11)
        samples[:, 0.5 * step * np.arange(2 * n_steps + 1) < 100.0] *= 50.0
        args = (spec, constant_history(np.array([0.5, -0.5]), 0.0, 1.0, step), n_steps * step,
                step, samples)
        got = outcome(*args)
        # W = 16 keeps lane 0 of 11, then W = 32 keeps 2 of 4 lanes: 32 + 3 * 32 segments
        assert lane_log == [(128, 64)]
        assert got == lanes_off(*args)

    @pytest.mark.parametrize("t_blow, exact", [(150.0, 0), (295.0, 288)])
    def test_overflow_raises_at_the_segment_loop_time(self, lane_log, t_blow, exact):
        # the overflow falls inside the round's lanes, which give it up, or past them
        spec = demo_spec(tau=1.0)
        step, n_steps = 0.25, 300 * 4
        samples = wave_samples(2, 2, n_steps, step, 7)
        samples[1, 0.5 * step * np.arange(2 * n_steps + 1) >= t_blow] = 1.7e308
        args = (spec, constant_history(np.zeros(2), 0.0, 1.0, step), n_steps * step, step,
                samples)
        got = outcome(*args)
        assert lane_log == [(exact, 32)]
        assert got.startswith("state left the finite range") and got == lanes_off(*args)

    @pytest.mark.parametrize("runs, t_end", [(None, 200.0), (1, 200.0), (2, 200.0), (2, 20.0)])
    def test_one_run_takes_the_round_of_two_and_a_short_window_none(self, lane_log, runs,
                                                                    t_end):
        calls = []
        spec = counting_demo_spec(calls, wave_forcing(2))
        step = 0.2 / 32
        history = constant_history(np.zeros(2), -30.0, 0.2, step)
        n_steps = round((t_end + 30.0) / step)
        samples = None if runs is None else wave_samples(2, runs, n_steps, step, 3)
        got = integrate_mos(spec, history, t_end, step, samples)
        if t_end == 20.0:
            # two lanes of 128 segments after a warm-up of 128 need 384 of the 250 segments
            assert lane_log == [(0, 128)]
            assert len(calls) == n_steps // 32
            return
        # 6.3's round: 7 lanes of 128 segments after a warm-up of 128 keep them all
        assert lane_log == [(1024, 128)]
        assert len(calls) == 2 * 128 + n_steps // 32 - 1024
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lanes, "WARMUP_CAP", 0)
            loop = integrate_mos(spec, history, t_end, step, samples)
        if runs is None:
            got, loop = [got], [loop]
        for lane, alone in zip(got, loop):
            np.testing.assert_array_equal(lane.values.view(np.uint64), alone.values.view(np.uint64))


class TestBoundedSolution:
    def test_zero_system_zero_solution(self):
        spec = DelaySystemSpec(-np.eye(2), 0.5, Nonlinearity.zero(2), zero_forcing)
        sol = bounded_solution(spec, (0.0, 5.0), 0.0625)
        assert sol.sup_norm() == 0.0

    def test_demo_sup_bound(self, delay_demo):
        spec = delay_demo.spec_combined
        sc = spec.constants
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
        assert np.linalg.norm(s0.values - s1.values, axis=1).max() < 1e-8

    def test_margin_required(self):
        spec = demo_spec(tau=30.0)
        with pytest.raises(AssumptionError):
            bounded_solution(spec, (0.0, 1.0), 30.0 / 150)

    @pytest.mark.parametrize("rate", [500.0, 1000.0, 1e300])
    def test_step_too_coarse_for_a_stiff_system_refused(self, rate):
        # the RK4 step matrix at tau / 32 has spectral radius 1.645 at rate 500
        spec = DelaySystemSpec(-rate * np.eye(1), 0.2, Nonlinearity.zero(1),
                               lambda t: np.ones(np.shape(t) + (1,)))
        with pytest.raises(ArgumentError) as caught:
            bounded_solution(spec, (0.0, 1.0), 0.2 / 32)
        assert caught.value.names == ("step", "matrix")

    def test_stiff_system_at_a_stable_step(self):
        # spectral radius 0.299 at rate 300: the solution settles on 1 / 300
        spec = DelaySystemSpec(-300.0 * np.eye(1), 0.2, Nonlinearity.zero(1),
                               lambda t: np.ones(np.shape(t) + (1,)))
        sol = bounded_solution(spec, (0.0, 1.0), 0.2 / 32)
        assert np.abs(sol.values - 1.0 / 300.0).max() <= 1e-12


def test_spec_computes_its_stability_constants_once(monkeypatch):
    calls = []

    def counted(a):
        calls.append(a)
        return stability_constants(a)
    monkeypatch.setattr(delay, "stability_constants", counted)
    spec = demo_spec(lambda t: np.ones(np.shape(t) + (2,)))
    check_assumptions(spec)
    proof_constants(spec, 1.0, 1.0)
    bounded_solution(spec, (0.0, 0.5), 0.2 / 32)
    assert len(calls) == 1


def test_no_routine_takes_the_stability_constants():
    """The delay spec owns N and lambda: no function takes them as an argument, and
    only ``DelaySystemSpec.constants`` calls ``stability_constants``."""
    callers = []
    for path in Path(delay.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                assert "constants" not in names, f"{path.name}:{node.lineno}"
                callers += [(path.name, getattr(node, "name", None)) for call in ast.walk(node)
                            if isinstance(call, ast.Call)
                            and getattr(call.func, "id", None) == "stability_constants"]
    assert callers == [("delay.py", "constants")]


class TestProofConstants:
    def test_specialisation_without_nonlinearity(self):
        spec = DelaySystemSpec(catalog.delay_demo_matrix(), 0.2,
                               Nonlinearity(lambda x: np.zeros_like(x),
                                            bound=1e-300, lipschitz=0.0), zero_forcing)
        sc = stability_constants(spec.matrix)
        pc = proof_constants(spec, 1.5, 0.5)
        n, lam = sc.amplitude, sc.decay_rate
        assert pc.k2 == pytest.approx(n / lam, rel=1e-12)
        assert pc.k1 == pytest.approx(n * n * 2.0 / lam, rel=1e-12)

    def test_linear_in_forcing_sups(self):
        spec = DelaySystemSpec(catalog.delay_demo_matrix(), 0.2,
                               Nonlinearity(lambda x: np.zeros_like(x),
                                            bound=1e-300, lipschitz=0.0), zero_forcing)
        one = proof_constants(spec, 1.0, 1.0)
        two = proof_constants(spec, 2.0, 2.0)
        assert two.k1 == pytest.approx(2.0 * one.k1, rel=1e-12)

    def test_demo_constants_positive(self, delay_demo):
        assert delay_demo.proof.k1 > 0
        assert delay_demo.proof.k2 > 0
        assert delay_demo.proof.m0 > 0

    def test_failed_margin_raises(self):
        spec = demo_spec(tau=30.0)
        with pytest.raises(AssumptionError):
            proof_constants(spec, 1.0, 1.0)


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
        g_alpha = cand.values[160]
        for j in (200, 320, 640):
            exact = expm(a * (times[j] - alpha)) @ g_alpha
            assert np.linalg.norm(out.values[j] - exact) <= 1e-9
        np.testing.assert_array_equal(out.values[:161], cand.values[:161])

    def test_fixed_point_property(self, delay_demo):
        d = delay_demo
        cand = GridFunction(d.phi_solution.t_start, d.phi_solution.step,
                            d.phi_solution.values - d.psi_solution.values)
        image = picard_apply(d.spec_combined, d.psi_solution, d.theta_grid, cand, d.alpha)
        gap = np.linalg.norm(image.values - cand.values, axis=1).max()
        assert gap <= 1e-6

    def test_contraction_inequality(self, delay_demo):
        d = delay_demo
        base = d.phi_solution.values - d.psi_solution.values
        a_idx = d.phi_solution.index_at(d.alpha)
        rng = np.random.default_rng(17)
        sc = d.spec_combined.constants
        bound = sc.amplitude * d.spec_combined.nonlinearity.lipschitz / sc.decay_rate + 0.05
        for _ in range(3):
            n1, n2 = (rng.uniform(-0.5, 0.5, base.shape) for _ in range(2))
            n1[:a_idx + 1] = 0.0
            n2[:a_idx + 1] = 0.0
            g1 = GridFunction(d.phi_solution.t_start, d.phi_solution.step, base + n1)
            g2 = GridFunction(d.phi_solution.t_start, d.phi_solution.step, base + n2)
            t1 = picard_apply(d.spec_combined, d.psi_solution, d.theta_grid, g1, d.alpha)
            t2 = picard_apply(d.spec_combined, d.psi_solution, d.theta_grid, g2, d.alpha)
            num = np.linalg.norm(t1.values - t2.values, axis=1).max()
            den = np.linalg.norm(g1.values - g2.values, axis=1).max()
            assert num <= bound * den


    def test_matches_reference_on_demo(self, delay_demo):
        d = delay_demo
        cand = GridFunction(d.phi_solution.t_start, d.phi_solution.step,
                            d.phi_solution.values - d.psi_solution.values)
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
        report = convergence_check(d.phi_solution, d.phi_solution, d.spec_combined,
                                   d.proof, d.alpha, d.gamma, d.epsilon)
        assert report.envelope_ok
        assert report.tail_sup == 0.0

    def test_envelope_value_at_alpha(self, delay_demo):
        d = delay_demo
        # a synthetic difference exactly at the envelope start value must pass,
        # anything above it by more than the slack must fail
        level = d.proof.k1 + d.proof.k2 * d.gamma * d.epsilon
        times = d.phi_solution.times()
        peak = np.zeros_like(d.phi_solution.values)
        j = d.phi_solution.index_at(d.alpha)
        peak[j, 0] = level
        inside = GridFunction(d.phi_solution.t_start, d.phi_solution.step,
                              d.psi_solution.values + peak)
        rep = convergence_check(inside, d.psi_solution, d.spec_combined, d.proof,
                                d.alpha, d.gamma, d.epsilon)
        assert rep.envelope_ok
        peak[j, 0] = level + 1e-3
        outside = GridFunction(d.phi_solution.t_start, d.phi_solution.step,
                               d.psi_solution.values + peak)
        rep = convergence_check(outside, d.psi_solution, d.spec_combined, d.proof,
                                d.alpha, d.gamma, d.epsilon)
        assert not rep.envelope_ok
        assert rep.worst_time == pytest.approx(d.alpha, abs=1e-9)

    def test_gamma_ceiling_enforced(self, delay_demo):
        d = delay_demo
        with pytest.raises(DomainError):
            convergence_check(d.phi_solution, d.psi_solution, d.spec_combined, d.proof,
                              d.alpha, 1.0 / (d.proof.k1 + d.proof.k2), d.epsilon)
