import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from updyn import catalog, discrete, lanes
from updyn.constructs import VectorSequence, build_sequence_triple
from updyn.discrete import (DiscreteSystemSpec, bounded_orbit, burn_in_length,
                            convergence_check_discrete, gamma_ceiling, gronwall_envelope,
                            iterate, orbit_sum_residual, spectral_norm)
from updyn.errors import ArgumentError, AssumptionError, DomainError, WindowExhaustedError
from updyn.nonlinearity import Nonlinearity, check_assumptions

SQRT5_OVER_4 = math.sqrt(5.0) / 4.0
K = 4096  # long enough for many lanes of either shape in test_window_lengths


def column_product(b, w):
    """B w summed column by column, the order iterate guarantees."""
    acc = b[:, 0] * w[0]
    for k in range(1, w.size):
        acc = acc + b[:, k] * w[k]
    return acc


def reference_iterate(spec, forcing, start_state, steps, start_index=None, product=np.matmul):
    """One transition w <- B w + g(w) + forcing_i at a time."""
    i0 = forcing.t_start if start_index is None else start_index
    w = np.atleast_1d(np.asarray(start_state, dtype=float))
    out = np.empty((steps + 1, spec.dim))
    out[0] = w
    phi = forcing.values[i0 - forcing.t_start:]
    for j in range(steps):
        w = product(spec.matrix, w) + spec.nonlinearity(w) + phi[j]
        out[j + 1] = w
    return VectorSequence(i0, out)


def reference_sum_residual(spec, forcing, orbit, tol=1e-10, sample=16):
    """orbit_sum_residual with each sampled sum advanced on its own."""
    norm_b = spectral_norm(spec.matrix)
    scale = (spec.nonlinearity.bound + forcing.sup_norm()) / (1.0 - norm_b)
    depth = max(1, math.ceil(math.log(tol / max(scale, tol)) / math.log(max(norm_b, 1e-300))))
    candidates = range(max(orbit.t_start, forcing.t_start) + depth + 1,
                       orbit.t_end + 1)
    worst = 0.0
    for i in candidates[::max(1, len(candidates) // sample)]:
        acc = np.zeros(spec.dim)
        for j in range(i - depth, i + 1):
            acc = spec.matrix @ acc + spec.nonlinearity(orbit.value_at(j - 1)) \
                + forcing.value_at(j - 1)
        worst = max(worst, float(np.linalg.norm(acc - orbit.value_at(i))))
    return worst


def assert_same_bits(a, b):
    assert a.t_start == b.t_start
    np.testing.assert_array_equal(a.values.view(np.uint64), b.values.view(np.uint64))


def rotation(angle, scale):
    c, s = math.cos(angle), math.sin(angle)
    return scale * np.array([[c, -s], [s, c]])


def random_forcing(n, dim, seed, base=0):
    return VectorSequence(base, np.random.default_rng(seed).uniform(-1, 1, (n, dim)))


def zero_forcing(n=500, p=2, base=0):
    return VectorSequence(base, np.zeros((n, p)))


def constant_forcing(c, n=500, base=0):
    c = np.asarray(c, dtype=float)
    return VectorSequence(base, np.tile(c, (n, 1)))


class TestSpectralNorm:
    def test_demo_matrix(self):
        assert spectral_norm(catalog.discrete_demo_matrix()) == pytest.approx(
            SQRT5_OVER_4, abs=1e-12)

    def test_identity(self):
        assert spectral_norm(np.eye(4)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert spectral_norm(np.diag([0.3, -0.7])) == pytest.approx(0.7, abs=1e-12)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 3))) == 0.0

    def test_against_svd_oracle(self):
        rng = np.random.default_rng(23)
        for n in range(2, 9):
            for _ in range(8):
                b = rng.standard_normal((n, n))
                expected = np.linalg.svd(b, compute_uv=False)[0]
                assert spectral_norm(b) == pytest.approx(expected, abs=1e-10 * max(1, expected))

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            spectral_norm(np.array([[1.0, np.inf], [0.0, 1.0]]))

    def test_nearly_equal_singular_values(self):
        # power iteration stalled here and raised after about two seconds
        assert spectral_norm(np.diag([0.5, 0.5 - 1e-7])) == pytest.approx(0.5, abs=1e-15)

    def test_demo_value_unchanged(self):
        assert spectral_norm(catalog.discrete_demo_matrix()) == 0.5590169943749475


class TestAssumptions:
    def test_demo_margin(self):
        spec = DiscreteSystemSpec(catalog.discrete_demo_matrix(),
                                  catalog.discrete_demo_nonlinearity())
        report = check_assumptions(spec)
        assert report.spot.bound_ok and report.spot.lipschitz_ok and report.contracts
        assert report.margin == pytest.approx(1.0 - SQRT5_OVER_4 - 0.2, abs=1e-12)

    def test_margin_without_nonlinearity(self):
        spec = DiscreteSystemSpec(0.5 * np.eye(2), Nonlinearity.zero(2))
        report = check_assumptions(spec)
        assert report.margin == pytest.approx(0.5, abs=1e-12)

    def test_large_lipschitz_fails(self):
        strong = Nonlinearity(lambda w: 0.5 * np.sin(w), bound=1.0, lipschitz=0.5)
        spec = DiscreteSystemSpec(catalog.discrete_demo_matrix(), strong)
        report = check_assumptions(spec)
        assert report.margin < 0.0
        assert not report.contracts

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(lip=st.sampled_from([0.0, 0.1, 1.0 / 6.0, 0.2, 0.3, 0.45]), ulps=st.integers(-4, 4))
    def test_b3_holds_exactly_when_the_margin_routines_accept(self, lip, ulps):
        # 1 - |B| - L and 1 - (|B| + L) disagree in sign a few ulps from |B| = 1 - L
        nb = 1.0 - lip
        for _ in range(abs(ulps)):
            nb = float(np.nextafter(nb, math.copysign(math.inf, ulps)))
        nl = Nonlinearity(lambda w: lip * np.sin(w), bound=1.0, lipschitz=lip)
        spec = DiscreteSystemSpec(np.diag([nb, 0.0]), nl)
        report = check_assumptions(spec)
        refused = []
        for call in (lambda: burn_in_length(spec, zero_forcing().sup_norm(), 1e-9),
                     lambda: gamma_ceiling(spec, 1.0, 1.0),
                     lambda: gronwall_envelope(spec, 1.0, 1.0, 0, 0.0, 1e-3, (0, 10))):
            try:
                call()
                refused.append(False)
            except AssumptionError:
                refused.append(True)
        assert refused == [not report.contracts] * 3

    def test_zero_rate_burns_in_one_step(self):
        spec = DiscreteSystemSpec(np.zeros((2, 2)), Nonlinearity.zero(2))
        assert spec.rate == 0.0
        assert burn_in_length(spec, constant_forcing([1.0, -1.0]).sup_norm(), 1e-9) == 1


def test_contraction_constants_have_one_home():
    """No routine takes |B| as an argument; discrete.py forms |B| and q only in the spec."""
    for path in Path(discrete.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                assert "norm_b" not in names, f"{path.name}:{node.lineno}"
    owners = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "spectral_norm") or \
                    (isinstance(child, ast.Attribute) and child.attr == "lipschitz"):
                owners.append(owner)
            visit(child, child.name if isinstance(child, ast.ClassDef) else owner)

    visit(ast.parse(Path(discrete.__file__).read_text(encoding="utf-8")), None)
    assert owners == ["DiscreteSystemSpec"] * 2


class TestIterate:
    def test_zero_matrix_reproduces_forcing(self):
        rng = np.random.default_rng(1)
        forcing = VectorSequence(0, rng.uniform(-1, 1, (50, 2)))
        spec = DiscreteSystemSpec(np.zeros((2, 2)), Nonlinearity.zero(2))
        orbit = iterate(spec, forcing, np.array([0.4, -0.1]), 30)
        np.testing.assert_array_equal(orbit.values[1:], forcing.values[:30])

    def test_constant_forcing_converges_to_linear_solve(self):
        b = catalog.discrete_demo_matrix()
        c = np.array([0.7, -0.2])
        spec = DiscreteSystemSpec(b, Nonlinearity.zero(2))
        orbit = iterate(spec, constant_forcing(c), np.array([5.0, 5.0]), 200)
        limit = np.linalg.solve(np.eye(2) - b, c)
        assert np.linalg.norm(orbit.value_at(200) - limit) <= 1e-12

    def test_unforced_decay_bound(self):
        b = catalog.discrete_demo_matrix()
        spec = DiscreteSystemSpec(b, Nonlinearity.zero(2))
        w0 = np.array([1.0, -2.0])
        orbit = iterate(spec, zero_forcing(), w0, 60)
        q = spectral_norm(b)
        norms = orbit.norms()
        for i in range(61):
            assert norms[i] <= q ** i * np.linalg.norm(w0) * (1.0 + 1e-12)

    def test_forcing_window_exhaustion(self):
        spec = DiscreteSystemSpec(np.eye(2) * 0.5, Nonlinearity.zero(2))
        with pytest.raises(WindowExhaustedError):
            iterate(spec, zero_forcing(n=10), np.zeros(2), 11)

    def test_forcing_of_another_dimension_refused(self):
        spec = DiscreteSystemSpec(np.eye(2) * 0.5, Nonlinearity.zero(2))
        orbit = iterate(spec, zero_forcing(n=120), np.zeros(2), 100)
        for forcing in (zero_forcing(n=120, p=3), zero_forcing(n=120, p=1)):
            with pytest.raises(DomainError, match="forcing dimension"):
                iterate(spec, forcing, np.zeros(2), 10)
            with pytest.raises(DomainError, match="forcing dimension"):
                orbit_sum_residual(spec, forcing, orbit)

    def test_contraction_between_orbits(self):
        spec = DiscreteSystemSpec(catalog.discrete_demo_matrix(),
                                  catalog.discrete_demo_nonlinearity())
        forcing = constant_forcing([0.3, 0.1], n=150)
        rng = np.random.default_rng(6)
        w0, v0 = rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)
        a = iterate(spec, forcing, w0, 100)
        b = iterate(spec, forcing, v0, 100)
        q = SQRT5_OVER_4 + 0.2
        d0 = np.linalg.norm(w0 - v0)
        gap = np.linalg.norm(a.values - b.values, axis=1)
        for i in range(101):
            assert gap[i] <= q ** i * d0 * (1.0 + 1e-9) + 1e-15


class TestBoundedOrbit:
    def test_zero_system(self):
        spec = DiscreteSystemSpec(0.5 * np.eye(2), Nonlinearity.zero(2))
        orbit = bounded_orbit(spec, zero_forcing(n=300, base=-200), (0, 50))
        assert orbit.sup_norm() == 0.0

    def test_window_whose_burn_in_starts_before_the_forcing_refused_before_iterating(
            self, monkeypatch):
        spec = DiscreteSystemSpec(catalog.discrete_demo_matrix(),
                                  catalog.discrete_demo_nonlinearity())
        forcing = constant_forcing([0.3, 0.1], n=400, base=10)
        burn = burn_in_length(spec, forcing.sup_norm(), 1e-9)
        calls, real = [], discrete.iterate

        def counted(*args, **kwargs):
            calls.append(kwargs["start_index"])
            return real(*args, **kwargs)
        monkeypatch.setattr(discrete, "iterate", counted)
        for start in (10, 10 + burn - 1):
            with pytest.raises(ArgumentError, match=f"index {start - burn} .* starts at 10$") as exc:
                bounded_orbit(spec, forcing, (start, start + 100))
            assert exc.value.names == ("window", "tol") and calls == []
        orbit = bounded_orbit(spec, forcing, (10 + burn, 10 + burn + 100))
        assert calls == [10] and orbit.t_start == 10 + burn

    def test_sup_bound(self, discrete_demo):
        d = discrete_demo
        bound = (d.spec.nonlinearity.bound + d.m_phi) / (1.0 - d.spec.norm_b)
        assert d.phi_orbit.sup_norm() <= bound + 1e-9

    def test_start_state_independence(self):
        triple = build_sequence_triple(catalog.source_orbit(length=400))
        spec = DiscreteSystemSpec(catalog.discrete_demo_matrix(),
                                  catalog.discrete_demo_nonlinearity())
        tol = 1e-9
        burn = burn_in_length(spec, triple.phi.sup_norm(), tol)
        rng = np.random.default_rng(12)
        w0 = rng.uniform(-1, 1, 2)
        w0 /= max(1.0, np.linalg.norm(w0))
        a = iterate(spec, triple.phi, np.zeros(2), burn + 100)
        b = iterate(spec, triple.phi, w0, burn + 100)
        gap = np.linalg.norm(a.values[burn:] - b.values[burn:], axis=1)
        assert gap.max() < tol

    def test_recurrence_residual(self, discrete_demo):
        d = discrete_demo
        w = d.phi_orbit.values
        base_off = d.phi_orbit.t_start - d.phi_forcing.t_start
        phi = d.phi_forcing.values[base_off:base_off + len(w) - 1]
        pred = w[:-1] @ d.spec.matrix.T + d.spec.nonlinearity(w[:-1]) + phi
        assert np.abs(w[1:] - pred).max() <= 4 * np.finfo(float).eps * 10

    def test_margin_required(self):
        strong = Nonlinearity(lambda w: 0.9 * np.tanh(w), bound=2.0, lipschitz=0.9)
        spec = DiscreteSystemSpec(catalog.discrete_demo_matrix(), strong)
        with pytest.raises(AssumptionError):
            bounded_orbit(spec, zero_forcing(), (0, 10))

    def test_sum_representation_cross_check(self, discrete_demo):
        d = discrete_demo
        gap = orbit_sum_residual(d.spec, d.phi_forcing, d.phi_orbit, tol=1e-10)
        assert gap <= 1e-9

    def test_sum_residual_matches_per_sample_sums(self, discrete_demo):
        d = discrete_demo
        for orbit in (d.phi_orbit, d.psi_orbit):
            assert orbit_sum_residual(d.spec, d.phi_forcing, orbit) == \
                reference_sum_residual(d.spec, d.phi_forcing, orbit)

    def test_sum_residual_needs_forcing_past_the_orbit(self):
        spec = DiscreteSystemSpec(0.5 * np.eye(2), Nonlinearity.zero(2))
        orbit = VectorSequence(0, np.zeros((200, 2)))
        with pytest.raises(WindowExhaustedError):
            orbit_sum_residual(spec, zero_forcing(n=120), orbit)


    def test_demo_refuses_a_window_within_the_sum_depth_before_any_orbit(self, monkeypatch):
        # the runner and the sum check share one depth, 44 steps on the demo system
        calls, real = [], catalog.bounded_orbit

        def counted(spec, forcing, window, tol):
            calls.append(window)
            return real(spec, forcing, window, tol)
        monkeypatch.setattr(catalog, "bounded_orbit", counted)
        for end in (4040, 4044):
            with pytest.raises(ArgumentError, match=f"{end - 4000} steps; .* over 44$") as exc:
                catalog.run_discrete_demo(window=(4000, end))
            assert exc.value.names == ("window",) and calls == []
        demo = catalog.run_discrete_demo(window=(4000, 4045))
        assert calls == [(4000, 4045)] * 2
        tol = catalog.DISCRETE_SUM_TOL
        assert orbit_sum_residual(demo.spec, demo.phi_forcing, demo.phi_orbit, tol) <= 1e-9
        with pytest.raises(DomainError, match="truncation depth"):
            orbit_sum_residual(demo.spec, demo.phi_forcing, demo.phi_orbit.restrict(4000, 4044),
                               tol)

    def test_demo_computes_the_spectral_norm_once(self, monkeypatch):
        # one spec serves both forcings, so |B| comes from one SVD
        calls = []

        def counted(b):
            calls.append(b)
            return spectral_norm(b)
        monkeypatch.setattr(discrete, "spectral_norm", counted)
        catalog.run_discrete_demo()
        assert len(calls) == 1


class TestGronwallEnvelope:
    def _spec(self):
        return DiscreteSystemSpec(catalog.discrete_demo_matrix(),
                                  catalog.discrete_demo_nonlinearity())

    def test_asymptotic_level(self):
        spec = self._spec()
        gamma, eps = 0.01, 1e-3
        env = gronwall_envelope(spec, 5.0, 1.0, 10, gamma, eps, (10, 190))
        q = spectral_norm(spec.matrix) + 0.2
        level = gamma * eps / (1.0 - q)
        assert env.values[-1] == pytest.approx(level, rel=1e-6)
        assert env.persistent_level == pytest.approx(level, rel=1e-12)

    def test_first_step_formula(self):
        spec = self._spec()
        gamma, eps, alpha = 0.01, 1e-3, 10
        env = gronwall_envelope(spec, 5.0, 1.0, alpha, gamma, eps, (0, 100))
        norm_b = spectral_norm(spec.matrix)
        q = norm_b + 0.2
        big = (2.0 * spec.nonlinearity.bound + 5.0 + 1.0) / (1.0 - norm_b)
        expected = gamma * eps / (1.0 - q) * (1.0 - q) + big * q
        assert env.start_index == alpha + 1
        assert env.values[0] == pytest.approx(expected, rel=1e-12)

    def test_crossing_time_prediction(self):
        spec = self._spec()
        gamma, eps, alpha = 0.01, 1e-3, 0
        env = gronwall_envelope(spec, 5.0, 1.0, alpha, gamma, eps, (0, 150))
        q = spectral_norm(spec.matrix) + 0.2
        predicted = math.log(1.0 / (gamma * eps)) / math.log(1.0 / q)
        assert np.all(env.values[int(alpha + predicted) + 1 - env.start_index:] < eps)

    def test_gamma_ceiling_enforced(self):
        spec = self._spec()
        ceiling = gamma_ceiling(spec, 5.0, 1.0)
        with pytest.raises(DomainError):
            gronwall_envelope(spec, 5.0, 1.0, 10, ceiling, 1e-3, (10, 50))


class TestConvergenceCheckDiscrete:
    def test_identical_orbits(self, discrete_demo):
        d = discrete_demo
        report = convergence_check_discrete(d.phi_orbit, d.phi_orbit, d.envelope, d.alpha)
        assert report.envelope_ok
        assert all(where == d.phi_orbit.t_start for _, where in report.crossings)

    def test_demo_envelope_dominates(self, discrete_demo):
        assert discrete_demo.report.envelope_ok
        assert discrete_demo.report.max_excess <= 1e-9

    def test_spiked_tail_recovers(self):
        # a forcing difference spike past alpha re-fits alpha and still obeys
        # the envelope once the spike has passed
        orbit = catalog.source_orbit(length=400)
        triple = build_sequence_triple(orbit)
        psi = triple.psi
        spike_at = 150
        theta = np.zeros_like(psi.values)
        theta[spike_at - psi.t_start] = [0.5, 0.0]
        phi = VectorSequence(psi.t_start, psi.values + theta)
        spec = DiscreteSystemSpec(catalog.discrete_demo_matrix(),
                                  catalog.discrete_demo_nonlinearity())
        a = bounded_orbit(spec, phi, (100, 398), tol=1e-10)
        b = bounded_orbit(spec, psi, (100, 398), tol=1e-10)
        m_phi, m_psi = phi.sup_norm(), psi.sup_norm()
        gamma = 0.5 * gamma_ceiling(spec, m_phi, m_psi)
        eps = 1e-6
        alpha = spike_at + 1
        env = gronwall_envelope(spec, m_phi, m_psi, alpha, gamma, eps, (100, 398))
        report = convergence_check_discrete(a, b, env, alpha)
        assert report.envelope_ok


# window lengths around the lane shape (lanes of m = W rows after a warm-up of W), as labels
LANE_LENGTHS = {"m-1": lambda m, w: m - 1, "m+1": lambda m, w: m + 1,
                "W+m-1": lambda m, w: w + m - 1, "W+m+1": lambda m, w: w + m + 1,
                "3(W+m)+17": lambda m, w: 3 * (w + m) + 17}


class TestBlockSweeps:
    """iterate's lockstep lanes against the one-transition-at-a-time loop."""

    def _demo_system(self, nonlinearity):
        """The demo matrix with ``nonlinearity``, and the 6.4 forcings phi and psi."""
        triple = build_sequence_triple(catalog.source_orbit(length=44002))
        return DiscreteSystemSpec(catalog.discrete_demo_matrix(), nonlinearity), \
            (triple.phi, triple.psi)

    def test_demo_window_bit_identical(self):
        # the demo matrix makes every product exact, so B @ w agrees bit for bit
        spec, forcings = self._demo_system(catalog.discrete_demo_nonlinearity())
        for forcing in forcings:
            burn = burn_in_length(spec, forcing.sup_norm(), 1e-9)
            steps = 44000 - (4000 - burn)
            assert_same_bits(iterate(spec, forcing, np.zeros(2), steps, 4000 - burn),
                             reference_iterate(spec, forcing, np.zeros(2), steps, 4000 - burn))

    def test_tanh_system_bit_identical(self):
        spec, (forcing, _) = self._demo_system(catalog.tanh_nonlinearity(2, 0.2))
        w0 = np.array([0.3, -1.2])
        assert_same_bits(iterate(spec, forcing, w0, 20000, 100),
                         reference_iterate(spec, forcing, w0, 20000, 100))

    @pytest.mark.parametrize("steps", [0, 1, K - 1, K, K + 1, 3 * K + 17, *LANE_LENGTHS])
    # (first warm-up, warm-up cap): the demo matrix's own, and a start of 16 capped at 64
    @pytest.mark.parametrize("rows", [(64, lanes.WARMUP_CAP), (16, 64)])
    def test_window_lengths(self, monkeypatch, steps, rows):
        monkeypatch.setattr(lanes, "first_warmup", lambda _: rows[0])
        monkeypatch.setattr(lanes, "WARMUP_CAP", rows[1])
        if steps in LANE_LENGTHS:
            steps = LANE_LENGTHS[steps](rows[0], rows[0])
        spec = DiscreteSystemSpec(catalog.discrete_demo_matrix(),
                                  catalog.discrete_demo_nonlinearity())
        forcing = random_forcing(3 * K + 40, 2, steps, base=-15)
        w0 = np.array([0.7, -0.4])
        assert_same_bits(iterate(spec, forcing, w0, steps, -9),
                         reference_iterate(spec, forcing, w0, steps, -9))

    @settings(max_examples=30, deadline=None)
    @given(dim=st.sampled_from([2, 3]), seed=st.integers(0, 2 ** 32 - 1),
           norm=st.floats(0.05, 0.75), steps=st.integers(0, 700))
    def test_random_contracting_matrices(self, dim, seed, norm, steps):
        rng = np.random.default_rng(seed)
        b = rng.standard_normal((dim, dim))
        b *= norm / np.linalg.norm(b, 2)
        spec = DiscreteSystemSpec(b, catalog.tanh_nonlinearity(dim, 0.2))
        forcing = random_forcing(steps + 5, dim, seed)
        w0 = rng.uniform(-2, 2, dim)
        orbit = iterate(spec, forcing, w0, steps)
        assert_same_bits(orbit, reference_iterate(spec, forcing, w0, steps,
                                                  product=column_product))
        # B @ w may round differently from the column sum in the last bits
        ref = reference_iterate(spec, forcing, w0, steps)
        scale = max(1.0, ref.sup_norm())
        assert np.abs(orbit.values - ref.values).max() <= 1e-12 * scale

    @pytest.mark.parametrize("dim", [2, 3])
    def test_non_settling_system_falls_back_to_steps(self, monkeypatch, dim):
        b = rotation(0.7, 0.99)
        if dim == 3:
            q = np.linalg.qr(np.random.default_rng(4).standard_normal((3, 3)))[0]
            b = q @ np.block([[b, np.zeros((2, 1))], [np.zeros((1, 2)), 0.99]]) @ q.T
        spec = DiscreteSystemSpec(b, catalog.tanh_nonlinearity(dim, 0.2))
        forcing = random_forcing(3000, dim, 5)
        w0 = np.linspace(0.1, 0.3, dim)
        out = np.empty((3001, dim))
        out[0] = w0
        # |B| = 0.99 would start at a warm-up of 8192, past the cap: start at 64
        assert lanes.first_warmup(b) == 8192
        monkeypatch.setattr(lanes, "first_warmup", lambda _: 64)
        warm, stepped = discrete._orbit_rows(spec.matrix, spec.nonlinearity,
                                             forcing.values, out)
        # no lane merges at any warm-up; lane 0 of the rounds at 64 to 512 is exact:
        # 128 + 256 + 512 + 1024 rows, and 3000 - 1920 rows leave no two lanes of 1024
        assert warm == 1024
        assert stepped == 3000 - 1920
        ref = reference_iterate(spec, forcing, w0, 3000, product=column_product)
        np.testing.assert_array_equal(out.view(np.uint64), ref.values.view(np.uint64))
        assert_same_bits(iterate(spec, forcing, w0, 3000), ref)

    def test_demo_settles_without_stepping(self):
        spec, (forcing, _) = self._demo_system(catalog.discrete_demo_nonlinearity())
        out = np.zeros((20001, 2))
        warm, stepped = discrete._orbit_rows(spec.matrix, spec.nonlinearity,
                                             forcing.values, out)
        # one round at the first warm-up keeps every lane
        assert warm == lanes.first_warmup(spec.matrix) == 64
        assert stepped < 64

    def test_slow_contraction_settles_after_the_warm_up_doubles(self):
        # q = 0.8 + 0.1: lanes merge only once the warm-up has doubled from |B|'s 256
        spec = DiscreteSystemSpec(0.8 * np.eye(2), catalog.tanh_nonlinearity(2, 0.1))
        phi = random_forcing(5000, 2, 21).values
        out = np.empty((5001, 2))
        out[0] = [0.3, -0.2]
        stepped = out.copy()
        discrete._step_rows(spec.matrix, spec.nonlinearity, phi, stepped, 0)
        warm, rest = discrete._orbit_rows(spec.matrix, spec.nonlinearity, phi, out)
        assert lanes.first_warmup(spec.matrix) == 256 and warm == 512
        assert rest < warm
        np.testing.assert_array_equal(out.view(np.uint64), stepped.view(np.uint64))

    @pytest.mark.parametrize("start", [1.0, 1e300])
    def test_overflow_raises_like_the_reference(self, start):
        # from 1e300 the orbit overflows inside the first round's lanes
        spec = DiscreteSystemSpec(1.5 * np.eye(2), catalog.tanh_nonlinearity(2, 0.2))
        forcing = random_forcing(2500, 2, 9)
        caught = {}
        for name, fn in (("reference", reference_iterate), ("iterate", iterate)):
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                with pytest.raises(DomainError) as err:
                    fn(spec, forcing, np.full(2, start), 2400)
            caught[name] = (str(err.value), {(w.category, str(w.message)) for w in seen})
        assert caught["iterate"][0] == caught["reference"][0]
        assert caught["iterate"][1] <= caught["reference"][1]

    def test_bounded_orbit_is_the_window_of_one_iterate(self):
        spec, (_, forcing) = self._demo_system(catalog.discrete_demo_nonlinearity())
        burn = burn_in_length(spec, forcing.sup_norm(), 1e-9)
        whole = reference_iterate(spec, forcing, np.zeros(2), burn + 5000, 4000 - burn)
        assert_same_bits(bounded_orbit(spec, forcing, (4000, 9000)), whole.restrict(4000, 9000))


SWEEP_SYSTEMS = [(name, 2) for name in catalog.NONLINEARITIES] + [("tanh", 3), ("zero", 3)]


class TestSweepBits:
    """The lockstep lanes against ``_step_rows``, the one-transition loop.

    Each case runs with ``out`` past its first row holding NaN ("fill") or a
    near orbit ("guess"): lanes start only from rows they made exact, so
    neither changes a bit or the rows the lanes settle.
    """

    @staticmethod
    def _system(name, dim, guessed, matrix=None, steps=1900, seed=11):
        rng = np.random.default_rng(seed)
        if matrix is None:
            matrix = rng.standard_normal((dim, dim))
            matrix *= 0.5 / np.linalg.norm(matrix, 2)
        g = catalog.NONLINEARITIES[name](dim, 0.2)
        phi = rng.uniform(-1, 1, (steps, dim))
        stepped = np.empty((steps + 1, dim))
        stepped[0] = rng.uniform(-2, 2, dim)
        discrete._step_rows(matrix, g, phi, stepped, 0)
        out = stepped + rng.uniform(-1e-6, 1e-6, stepped.shape) if guessed \
            else np.full_like(stepped, np.nan)
        out[0] = stepped[0]
        return matrix, g, phi, out, stepped

    @pytest.mark.parametrize("guessed", [False, True], ids=["fill", "guess"])
    @pytest.mark.parametrize("name, dim", SWEEP_SYSTEMS)
    def test_sweeps_equal_the_step_loop(self, name, dim, guessed):
        b, g, phi, out, stepped = self._system(name, dim, guessed)
        warm, rest = discrete._orbit_rows(b, g, phi, out)
        # one round of 28 lanes settles 28 * 64 + 64 rows; the last 44 are stepped
        assert warm == lanes.first_warmup(b) == 64
        assert rest == 1900 - 1856
        np.testing.assert_array_equal(out.view(np.uint64), stepped.view(np.uint64))

    @pytest.mark.parametrize("guessed", [False, True], ids=["fill", "guess"])
    def test_block_at_the_sweep_cap_hands_over_to_steps(self, monkeypatch, guessed):
        b, g, phi, out, stepped = self._system("tanh", 2, guessed, rotation(0.7, 0.99), 3000)
        monkeypatch.setattr(lanes, "first_warmup", lambda _: 64)
        monkeypatch.setattr(lanes, "WARMUP_CAP", 256)
        warm, rest = discrete._orbit_rows(b, g, phi, out)
        # lane 0 of the rounds at warm-ups 64 to 256 is exact: 128 + 256 + 512 rows
        assert warm == 2 * lanes.WARMUP_CAP
        assert rest == 3000 - 896
        np.testing.assert_array_equal(out.view(np.uint64), stepped.view(np.uint64))
