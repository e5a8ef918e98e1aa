import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from updyn.chaos import (ExponentialFilter, GridFunction, PiecewiseConstantFunction,
                         ScalarOrbit, bebutov_distance, convolve_exponential,
                         logistic_orbit, logistic_step, quadrature_oracle)
from updyn.errors import DomainError, GridMismatchError

EPS = np.finfo(float).eps


class TestLogisticStep:
    def test_fixed_point_at_zero(self):
        assert logistic_step(0.0, 3.91) == 0.0

    def test_endpoint_maps_to_zero(self):
        assert logistic_step(1.0, 3.91) == 0.0

    def test_half_point(self):
        assert logistic_step(0.5, 3.91) == pytest.approx(0.9775, abs=1e-15)

    @pytest.mark.parametrize("x", [-0.1, 1.1, float("nan")])
    def test_state_domain(self, x):
        with pytest.raises(DomainError):
            logistic_step(x, 3.91)

    @pytest.mark.parametrize("r", [0.0, -1.0, 4.0001])
    def test_parameter_domain(self, r):
        with pytest.raises(DomainError):
            logistic_step(0.5, r)

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=1e-6, max_value=4.0))
    def test_image_inside_quarter_r(self, x, r):
        y = logistic_step(x, r)
        assert 0.0 <= y <= r / 4.0 + 4 * EPS


class TestLogisticOrbit:
    def test_records_seed_first(self):
        orbit = logistic_orbit(0.5, 0, 2)
        assert orbit.base_index == 0
        np.testing.assert_allclose(orbit.values, [0.5, 0.9775], rtol=0, atol=1e-15)

    def test_single_record(self):
        orbit = logistic_orbit(0.25, 0, 1)
        np.testing.assert_array_equal(orbit.values, [0.25])

    def test_post_burn_in_values_inside_map_image(self):
        orbit = logistic_orbit(0.99, 1, 5000)
        assert orbit.values.max() <= 3.91 / 4.0
        assert orbit.values.min() >= 0.0

    def test_recurrence_residual_zero(self):
        orbit = logistic_orbit(0.41, 1000, 2000)
        assert orbit.recurrence_residuals().max() <= 4 * EPS
        orbit.validate()

    @pytest.mark.parametrize("seed", [0.0, 1.0, -0.2, 1.3])
    def test_degenerate_seeds_rejected(self, seed):
        with pytest.raises(DomainError):
            logistic_orbit(seed, 10, 10)

    def test_bad_counts_rejected(self):
        with pytest.raises(DomainError):
            logistic_orbit(0.4, -1, 10)
        with pytest.raises(DomainError):
            logistic_orbit(0.4, 10, 0)

    def test_rebase_keeps_values(self):
        orbit = logistic_orbit(0.41, 10, 50).rebased(-20)
        assert orbit.base_index == -20
        assert orbit.end_index == 30
        assert orbit.value_at(-20) == orbit.values[0]


class TestConvolveExponential:
    def test_zero_orbit_gives_zero(self):
        orbit = ScalarOrbit(0, np.zeros(30))
        h = convolve_exponential(orbit, 2.0, 0.1)
        assert h.sup_norm() == 0.0

    def test_unit_orbit_gives_half(self):
        orbit = ScalarOrbit(0, np.ones(30))
        h = convolve_exponential(orbit, 2.0, 0.1)
        np.testing.assert_allclose(h.values, 0.5, rtol=0, atol=1e-15)

    def test_bounded_by_half(self):
        orbit = logistic_orbit(0.41, 1000, 200)
        h = convolve_exponential(orbit, 2.0, 0.05)
        assert np.abs(h.values).max() <= 0.5 + 1e-12

    def test_window_starts_after_warmup(self):
        orbit = logistic_orbit(0.41, 1000, 50).rebased(-10)
        h = convolve_exponential(orbit, 2.0, 0.25)
        assert h.t_start == 10.0
        assert h.t_end == pytest.approx(40.0)

    def test_step_must_divide_unit_interval(self):
        orbit = logistic_orbit(0.41, 10, 30)
        with pytest.raises(DomainError):
            convolve_exponential(orbit, 2.0, 0.3)

    def test_orbit_shorter_than_warmup_rejected(self):
        orbit = logistic_orbit(0.41, 10, 15)
        with pytest.raises(DomainError):
            convolve_exponential(orbit, 2.0, 0.5)

    def test_closed_form_matches_quadrature_oracle(self):
        orbit = logistic_orbit(0.41, 1000, 70)
        filt = ExponentialFilter.from_orbit(orbit, 2.0)
        rng = np.random.default_rng(11)
        for t in rng.uniform(40.0, 70.0, size=12):
            assert abs(float(filt.eval(t)) - quadrature_oracle(filt, t)) <= 1e-10

    def test_grid_agrees_with_filter(self):
        orbit = logistic_orbit(0.41, 500, 40)
        filt = ExponentialFilter.from_orbit(orbit, 2.0)
        h = convolve_exponential(orbit, 2.0, 0.05)
        np.testing.assert_array_equal(h.values[:, 0], filt.eval(h.times()))

    def test_general_decay_steady_state(self):
        orbit = ScalarOrbit(0, np.ones(25))
        h = convolve_exponential(orbit, 0.5, 0.5)
        np.testing.assert_allclose(h.values, 2.0, rtol=0, atol=1e-12)


class TestPiecewiseConstant:
    def test_right_continuity(self):
        mu = PiecewiseConstantFunction(0, [0.2, 0.7])
        assert mu(0.0) == 0.2
        assert mu(0.999999) == 0.2
        assert mu(1.0) == 0.7

    def test_domain(self):
        mu = PiecewiseConstantFunction(3, [0.1])
        with pytest.raises(DomainError):
            mu(2.5)


def _grid_pair(m=2, n=81, seed=0):
    rng = np.random.default_rng(seed)
    t0, step = -4.0, 0.1
    u = GridFunction(t0, step, rng.uniform(-1, 1, (n, m)))
    v = GridFunction(t0, step, rng.uniform(-1, 1, (n, m)))
    return u, v


class TestBebutovDistance:
    def test_identical_functions(self):
        u, _ = _grid_pair()
        assert bebutov_distance(u, u, 3) == 0.0

    def test_upper_bound(self):
        u, v = _grid_pair(seed=5)
        d = bebutov_distance(u, v, 4)
        assert d <= 1.0 - 2.0 ** -4 + 1e-15

    def test_saturated_constant_offset(self):
        u, _ = _grid_pair(seed=2)
        w = GridFunction(u.t_start, u.step, u.values + np.array([3.0, 0.0]))
        assert bebutov_distance(u, w, 4) == pytest.approx(1.0 - 2.0 ** -4, abs=1e-15)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = 101
            fns = [GridFunction(-5.0, 0.1, rng.uniform(-2, 2, (n, 2))) for _ in range(3)]
            u, v, w = fns
            duv = bebutov_distance(u, v, 4)
            dvu = bebutov_distance(v, u, 4)
            duw = bebutov_distance(u, w, 4)
            dwv = bebutov_distance(w, v, 4)
            assert duv == pytest.approx(dvu, abs=1e-12)
            assert duv <= duw + dwv + 1e-12

    def test_grid_mismatch(self):
        u, _ = _grid_pair()
        shifted = GridFunction(u.t_start + 0.05, u.step, u.values)
        with pytest.raises(GridMismatchError):
            bebutov_distance(u, shifted, 2)

    def test_coverage_required(self):
        u, v = _grid_pair()
        with pytest.raises(DomainError):
            bebutov_distance(u, v, 10)


def reference_quadrature(filt, t, depth=40.0):
    """The oracle's integral by scipy's adaptive quad, the step interpolant read through
    PiecewiseConstantFunction."""
    from scipy.integrate import quad

    mu = PiecewiseConstantFunction.from_orbit(filt.orbit)
    lo = t - depth
    if lo < filt.t_start - 1e-9 or t > filt.t_end + 1e-9:
        raise DomainError("oracle window leaves the recorded orbit")
    top = filt.t_end - 1e-9

    def integrand(s):
        return math.exp(-filt.decay * (t - s)) * float(mu(min(s, top)))

    breaks = [float(b) for b in range(math.ceil(lo), math.floor(t) + 1) if lo < b < t]
    value, _ = quad(integrand, lo, t, points=breaks or None,
                    limit=max(200, 4 * len(breaks)), epsabs=1e-13, epsrel=1e-12)
    return float(value)


class TestQuadratureOracle:
    def test_matches_quad_on_the_step_function_integrand(self):
        orbit = logistic_orbit(0.41, 1000, 221).rebased(-41)
        filt = ExponentialFilter.from_orbit(orbit, 2.0)
        rng = np.random.default_rng(2027)
        points = list(rng.uniform(filt.t_start + 40.0, filt.t_end, size=17))
        # up to 1e-9 past the orbit end passes the window guard; the nodes past
        # the end read the last level
        points += [filt.t_start + 40.0, filt.t_end, filt.t_end + 5e-10]
        for t in points:
            assert abs(quadrature_oracle(filt, t) - reference_quadrature(filt, t)) <= 1e-13

    @pytest.mark.parametrize("edge, offset", [("start", -1e-3), ("end", 1e-3),
                                              ("start", -5e-10)])
    def test_window_leaving_orbit_raises(self, edge, offset):
        # "start" moves the window's left edge t - 40 before the orbit start.
        # Up to 1e-9 early passes the window guard and fails on the first
        # quadrature node before the orbit instead.
        filt = ExponentialFilter.from_orbit(logistic_orbit(0.37, 500, 80), 2.0)
        t = (filt.t_start + 40.0 if edge == "start" else filt.t_end) + offset
        for oracle in (quadrature_oracle, reference_quadrature):
            with pytest.raises(DomainError):
                oracle(filt, t)
