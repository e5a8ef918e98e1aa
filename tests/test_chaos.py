import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from updyn.catalog import source_orbit
from updyn.chaos import (ROW_CHUNK, ExponentialFilter, VectorSequence, convolve_exponential,
                         logistic_orbit, logistic_residual, logistic_step, quadrature_oracle)
from updyn.errors import DomainError

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
        assert orbit.t_start == 0 and orbit.is_sequence
        np.testing.assert_allclose(orbit.values[:, 0], [0.5, 0.9775], rtol=0, atol=1e-15)

    def test_single_record(self):
        orbit = logistic_orbit(0.25, 0, 1)
        np.testing.assert_array_equal(orbit.values, [[0.25]])

    @pytest.mark.parametrize("length", [1, 15, 16, 17, 31, 32, 33, 2 * ROW_CHUNK + 2])
    def test_equals_a_step_loop(self, length):
        # the orbit is built 16 iterates a generator pass, and the rest one at a time
        x, expected = 0.41, []
        for _ in range(7):
            x = logistic_step(x)
        for _ in range(length):
            expected.append(x)
            x = logistic_step(x)
        orbit = logistic_orbit(0.41, 7, length)
        assert orbit.values.shape == (length, 1)
        assert orbit.values[:, 0].tobytes() == np.array(expected).tobytes()

    def test_post_burn_in_values_inside_map_image(self):
        orbit = logistic_orbit(0.99, 1, 5000)
        assert orbit.values.max() <= 3.91 / 4.0
        assert orbit.values.min() >= 0.0

    def test_recurrence_residual_zero(self):
        orbit = logistic_orbit(0.41, 1000, 2000)
        assert logistic_residual(orbit) <= 4 * EPS

    def test_recurrence_residuals_across_chunks(self):
        # the running max over chunks equals the whole array's, and sees a defect at
        # either end of each chunk
        orbit = logistic_orbit(0.41, 1000, 2 * ROW_CHUNK + 2)
        x = orbit.values[:, 0]
        reference = lambda: float(np.abs(x[1:] - 3.91 * x[:-1] * (1.0 - x[:-1])).max())
        assert logistic_residual(orbit) == reference()
        for k, row in enumerate((1, ROW_CHUNK, ROW_CHUNK + 1, 2 * ROW_CHUNK, 2 * ROW_CHUNK + 1)):
            x[row] += 1e-3 * (k + 1)
            assert logistic_residual(orbit) == reference() > 1e-4, row
        assert logistic_residual(logistic_orbit(0.41, 10, 1)) == 0.0

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
        orbit = logistic_orbit(0.41, 10, 50)
        moved = source_orbit(0.41, 10, 50, base_index=-20)
        assert moved.t_start == -20
        assert moved.t_end == 29
        np.testing.assert_array_equal(moved.values, orbit.values)


class TestConvolveExponential:
    def test_zero_orbit_gives_zero(self):
        orbit = VectorSequence(0, np.zeros(30))
        h = convolve_exponential(orbit, 2.0, 0.1)
        assert h.sup_norm() == 0.0

    def test_unit_orbit_gives_half(self):
        orbit = VectorSequence(0, np.ones(30))
        h = convolve_exponential(orbit, 2.0, 0.1)
        np.testing.assert_allclose(h.values, 0.5, rtol=0, atol=1e-15)

    def test_bounded_by_half(self):
        orbit = logistic_orbit(0.41, 1000, 200)
        h = convolve_exponential(orbit, 2.0, 0.05)
        assert np.abs(h.values).max() <= 0.5 + 1e-12

    def test_window_starts_after_warmup(self):
        orbit = source_orbit(0.41, 1000, 50, -10)
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
        orbit = VectorSequence(0, np.ones(25))
        h = convolve_exponential(orbit, 0.5, 0.5)
        np.testing.assert_allclose(h.values, 2.0, rtol=0, atol=1e-12)


def reference_quadrature(filt, t, depth=40.0):
    """The oracle's integral by scipy's adaptive quad, the step interpolant read as
    ``levels[floor(s) - base]``."""
    from scipy.integrate import quad

    lo = t - depth
    if lo < filt.t_start - 1e-9 or t > filt.t_end + 1e-9:
        raise DomainError("oracle window leaves the recorded orbit")
    top = filt.t_end - 1e-9
    levels, base = filt.orbit.values[:, 0], filt.orbit.t_start

    def integrand(s):
        k = math.floor(min(s, top)) - base
        if not 0 <= k < levels.size:
            raise DomainError("evaluation time outside the recorded window")
        return math.exp(-filt.decay * (t - s)) * float(levels[k])

    breaks = [float(b) for b in range(math.ceil(lo), math.floor(t) + 1) if lo < b < t]
    value, _ = quad(integrand, lo, t, points=breaks or None,
                    limit=max(200, 4 * len(breaks)), epsabs=1e-13, epsrel=1e-12)
    return float(value)


class TestQuadratureOracle:
    def test_matches_quad_on_the_step_function_integrand(self):
        orbit = source_orbit(0.41, 1000, 221, -41)
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
