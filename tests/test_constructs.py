import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import expit

from updyn.catalog import source_orbit
from updyn.chaos import ROW_CHUNK, GridFunction, convolve_exponential, logistic_orbit
from updyn.constructs import (DecompositionTriple, VectorSequence, affine_transform,
                              build_function_triple, build_sequence_triple, function_tail,
                              non_unpredictability_witness, sequence_tail, shift)
from updyn.errors import DomainError, SingularMatrixError


@pytest.fixture(scope="module")
def function_triple():
    orbit = source_orbit(0.41, 1000, 120, -60)
    h = convolve_exponential(orbit, 2.0, 0.05).restrict(-20.0, 60.0)
    return build_function_triple(h)


@pytest.fixture(scope="module")
def sequence_triple():
    return build_sequence_triple(logistic_orbit(0.41, 1000, 300))


class TestFunctionTriple:
    def test_tail_at_origin(self, function_triple):
        theta0 = function_triple.theta.value_at(0.0)
        np.testing.assert_allclose(theta0, [1.5, -5.0], rtol=0, atol=1e-14)
        assert np.linalg.norm(theta0) == pytest.approx(math.sqrt(27.25), abs=1e-13)

    def test_recurrent_part_bounded(self, function_triple):
        assert function_triple.psi.sup_norm() <= math.sqrt(5.0) / 2.0 + 1e-12

    def test_tail_negligible_at_forty(self, function_triple):
        theta40 = function_triple.theta.value_at(40.0)
        assert np.abs(theta40).max() < 1e-15

    def test_exact_decomposition(self, function_triple):
        assert function_triple.decomposition_residual() == 0.0

    @pytest.mark.parametrize("times", [
        -20.0 + 0.05 * np.arange(4001),                 # the 6.1 grid
        -30.0 + 0.5 * 0.00625 * np.arange(20001),       # the first 20,001 6.3 half nodes
        # where complex exp rescales (past 709), exp's last finite input and past it
        np.array([708.9, 709.0, 709.1, 709.78, 709.782712893384, 709.79, 1e6, -1e6, -800.0,
                  np.inf, -np.inf]),
        np.random.default_rng(16).uniform(-800.0, 800.0, (500, 4)),
    ], ids=["6.1-grid", "6.3-half-grid", "edges", "2-d"])
    def test_first_tail_column_is_bitwise_expit(self, times):
        # The 6.1 and 6.3 outputs are pinned to these bits, scipy's expit(-t):
        # 1/(1+exp(t)) with libm's exp.  numpy's vectorised np.exp differs from
        # it in the last bit on about 3% of these values on AVX-512 hosts, so
        # function_tail using np.exp would silently change the demo bytes.
        def libm(t):
            try:
                return 3.0 * (1.0 / (1.0 + math.exp(t)))
            except OverflowError:
                return 0.0

        first = function_tail(times)[..., 0]
        assert first.ravel().tolist() == [libm(t) for t in times.ravel().tolist()]
        assert first.tobytes() == (3.0 * expit(-times)).tobytes()


class TestSequenceTriple:
    def test_tail_at_zero(self, sequence_triple):
        theta0 = sequence_triple.theta.value_at(0)
        np.testing.assert_allclose(theta0, [2.0, 4.0], rtol=0, atol=0)
        assert np.linalg.norm(theta0) == pytest.approx(math.sqrt(20.0), abs=1e-14)

    def test_recurrent_part_bounded(self, sequence_triple):
        assert sequence_triple.psi.sup_norm() <= math.sqrt(17.0) / 4.0 + 1e-12

    def test_tail_small_past_ten(self, sequence_triple):
        norms = sequence_triple.theta.norms()
        assert norms[10:].max() < 0.02

    def test_exact_decomposition(self, sequence_triple):
        assert sequence_triple.decomposition_residual() == 0.0

    def test_chunked_build_matches_whole_array_formulas(self):
        orbit = source_orbit(0.41, 1000, 2 * ROW_CHUNK + 5, base_index=-7)
        kappa = orbit.values[:, 0]
        psi = np.stack([kappa, 0.25 * kappa], axis=-1)
        theta = sequence_tail(np.arange(-7, -7 + kappa.size, dtype=float))
        triple = build_sequence_triple(orbit)
        for got, want in ((triple.psi, psi), (triple.theta, theta), (triple.phi, psi + theta)):
            assert got.t_start == -7
            np.testing.assert_array_equal(got.values, want)

    def test_residual_sees_a_defect_in_the_last_chunk(self):
        triple = build_sequence_triple(logistic_orbit(0.41, 1000, ROW_CHUNK + 3))
        triple.phi.values[-1, 1] += 0.5
        assert triple.decomposition_residual() == pytest.approx(0.5, abs=1e-12)


class TestAffineTransform:
    def test_identity_is_noop(self, sequence_triple):
        psi = sequence_triple.psi
        out = affine_transform(psi, np.eye(2), np.zeros(2))
        np.testing.assert_array_equal(out.values, psi.values)
        assert out.t_start == psi.t_start

    def test_scaling_plus_offset_exact(self, sequence_triple):
        psi = sequence_triple.psi
        c = np.array([0.3, -1.2])
        out = affine_transform(psi, 2.0 * np.eye(2), c)
        np.testing.assert_array_equal(out.values, 2.0 * psi.values + c)

    def test_singular_matrix_rejected(self, sequence_triple):
        with pytest.raises(SingularMatrixError):
            affine_transform(sequence_triple.psi, np.array([[1.0, 2.0], [2.0, 4.0]]), np.zeros(2))

    def test_separation_scaling_identity(self, sequence_triple):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        omega = q @ np.diag([1.7, 0.6]) @ q.T
        inv_norm = np.linalg.svd(np.linalg.inv(omega), compute_uv=False)[0]
        psi = sequence_triple.psi
        out = affine_transform(psi, omega, np.zeros(2))
        for zeta in (7, 19, 40):
            gap_in = np.linalg.norm(psi.values[zeta:] - psi.values[:-zeta], axis=1)
            gap_out = np.linalg.norm(out.values[zeta:] - out.values[:-zeta], axis=1)
            assert np.all(gap_out >= gap_in / inv_norm - 1e-12)

    def test_triple_transform_preserves_decomposition(self, sequence_triple):
        omega = np.array([[0.9, 0.2], [-0.1, 1.4]])
        out = affine_transform(sequence_triple, omega, np.array([1.0, 2.0]))
        assert out.decomposition_residual() == 0.0
        np.testing.assert_allclose(out.theta.values,
                                   sequence_triple.theta.values @ omega.T,
                                   rtol=0, atol=1e-15)


class TestShift:
    def test_zero_shift_identity(self, sequence_triple):
        out = shift(sequence_triple.psi, 0)
        assert out.t_start == sequence_triple.psi.t_start
        np.testing.assert_array_equal(out.values, sequence_triple.psi.values)

    def test_shift_reads_ahead(self, sequence_triple):
        psi = sequence_triple.psi
        out = shift(psi, 7)
        for i in (0, 5, 100):
            np.testing.assert_array_equal(out.value_at(i), psi.value_at(i + 7))

    def test_inverse_shifts_cancel(self, sequence_triple):
        psi = sequence_triple.psi
        out = shift(shift(psi, 9), -9)
        assert out.t_start == psi.t_start
        np.testing.assert_array_equal(out.values, psi.values)

    @given(st.integers(-50, 50), st.integers(-50, 50))
    def test_composition(self, m1, m2):
        seq = VectorSequence(0, np.arange(12.0)[:, None])
        once = shift(shift(seq, m1), m2)
        both = shift(seq, m1 + m2)
        assert once.t_start == both.t_start

    def test_triple_shift_keeps_decomposition(self, sequence_triple):
        out = shift(sequence_triple, 4)
        assert out.decomposition_residual() == 0.0
        np.testing.assert_array_equal(out.phi.value_at(0), sequence_triple.phi.value_at(4))


class TestWitness:
    def test_function_witness_at_origin(self, function_triple):
        report = non_unpredictability_witness(function_triple, math.sqrt(5.0) / 2.0)
        assert report.found
        assert report.location == 0.0
        assert report.margin == pytest.approx(
            math.sqrt(27.25) - 2.0 * math.sqrt(5.0), abs=1e-12)
        assert report.bound_precondition_ok

    def test_sequence_witness_at_zero(self, sequence_triple):
        report = non_unpredictability_witness(sequence_triple, math.sqrt(17.0) / 4.0)
        assert report.found
        assert report.location == 0
        assert report.margin == pytest.approx(
            math.sqrt(20.0) - math.sqrt(17.0), abs=1e-12)

    def test_zero_tail_has_no_witness(self, sequence_triple):
        psi = sequence_triple.psi
        zero = VectorSequence(psi.t_start, np.zeros_like(psi.values))
        triple = DecompositionTriple(psi, psi, zero)
        report = non_unpredictability_witness(triple, 1.0)
        assert not report.found

    def test_witness_monotone_in_bound(self, sequence_triple):
        for bound in (math.sqrt(17.0) / 4.0, 0.9, 0.5, 0.1):
            assert non_unpredictability_witness(sequence_triple, bound).found

    def test_small_function_bound_flagged(self, function_triple):
        report = non_unpredictability_witness(function_triple, 0.5)
        assert not report.bound_precondition_ok
        assert "bound" in report.note

    def test_bound_must_be_positive(self, sequence_triple):
        with pytest.raises(DomainError):
            non_unpredictability_witness(sequence_triple, 0.0)
