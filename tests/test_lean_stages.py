"""The lean 6.2 stages give the bits of the expressions they replace, in bounded memory.

Each reference below is the plain numpy expression the stage used to evaluate
with full-size temporaries; the stage must reproduce its uint64 bit patterns.
"""

import tracemalloc

import numpy as np
import pytest

from updyn import catalog
from updyn.chaos import GridFunction, logistic_orbit, row_norms
from updyn.constructs import (DecompositionTriple, VectorSequence, build_sequence_triple,
                              non_unpredictability_witness, sequence_psi, sequence_tail)
from updyn.detectors import collect_evidence, decay_test
from updyn.errors import DomainError


def bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def reference_tail(indices) -> np.ndarray:
    i = np.asarray(indices, dtype=float)
    return np.stack([2.0 / (1.0 + i * i), 4.0 * np.exp(-i * i)], axis=-1)


@pytest.mark.parametrize("indices", [
    np.arange(-50_000, 10 ** 6 + 1),
    np.arange(20, 41),
    np.arange(-40, -19),
    np.linspace(20.0, 40.0, 40_001),          # the exp(-i^2) underflow edge is near 27.3
    np.linspace(-40.0, -20.0, 40_001),
    np.array([0.0, -0.0, 27.29, 27.3, 1e200, np.inf, -np.inf, np.nan]),
], ids=["-5e4..1e6", "20..40", "-40..-20", "20..40-fine", "-40..-20-fine", "edges"])
def test_sequence_tail_matches_the_stacked_expression(indices):
    with np.errstate(all="ignore"):
        want = reference_tail(indices)
        got = sequence_tail(indices)
    np.testing.assert_array_equal(bits(got), bits(want))


def test_sequence_tail_of_a_scalar_index():
    np.testing.assert_array_equal(bits(sequence_tail(3)), bits(reference_tail(3)))


@pytest.mark.parametrize("base", [0, -300, 7])
def test_build_sequence_triple_matches_the_stacked_expressions(base):
    orbit = catalog.source_orbit(0.37, 1000, 5000, base)
    kappa = orbit.values[:, 0]
    psi = np.stack([kappa, 0.25 * kappa], axis=-1)
    theta = reference_tail(base + np.arange(len(orbit)))
    triple = build_sequence_triple(orbit)
    for part, want in (("phi", psi + theta), ("psi", psi), ("theta", theta)):
        got = getattr(triple, part)
        assert got.t_start == base
        np.testing.assert_array_equal(bits(got.values), bits(want))


def test_witness_matches_the_index_array_scan():
    orbit = catalog.source_orbit(0.41, 1000, 3000, -40)
    triple = build_sequence_triple(orbit)
    report = non_unpredictability_witness(triple, catalog.SEQUENCE_PSI_SUP)
    norms = np.linalg.norm(triple.theta.values, axis=1)
    locs = triple.theta.times().astype(float)
    k = int(np.argmax(norms))
    assert report.location == int(locs[k]) and type(report.location) is int
    assert (report.scan_start, report.scan_end) == (float(locs[0]), float(locs[-1]))
    assert report.tail_norm == float(norms[k])


def _random_triple(rng, kind: str, n: int, dim: int) -> DecompositionTriple:
    # independent parts, so phi - (psi + theta) is far from zero
    parts = [rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-5, 6, (n, dim))
             for _ in range(3)]
    if kind == "sequence":
        return DecompositionTriple(*(VectorSequence(3, p) for p in parts))
    return DecompositionTriple(*(GridFunction(-1.0, 0.25, p) for p in parts))


@pytest.mark.parametrize("kind", ["sequence", "function"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_decomposition_residual_matches_the_full_array_expression(kind, dim):
    rng = np.random.default_rng(dim)
    for n in (1, 2, 997):
        triple = _random_triple(rng, kind, n, dim)
        p, s, t = (triple.phi.values, triple.psi.values, triple.theta.values)
        assert triple.decomposition_residual() == float(np.abs(p - (s + t)).max())
    seq = build_sequence_triple(logistic_orbit(0.41, 1000, 4000))
    assert seq.decomposition_residual() == 0.0


def reference_decay(values, ladder, start, spacing):
    norms = np.linalg.norm(values, axis=1)
    suffix = np.maximum.accumulate(norms[::-1])[::-1]
    entries = []
    for rung in ladder:
        hit = np.nonzero(suffix < rung)[0]
        entries.append((rung, start + spacing * int(hit[0]) if hit.size else None))
    stride = max(1, suffix.size // 512)
    return tuple(entries), tuple(float(x) for x in suffix[::stride])


@pytest.mark.parametrize("n", [1, 5, 600, 100_003])
def test_decay_test_matches_the_copying_suffix_max(n):
    rng = np.random.default_rng(n)
    values = rng.standard_normal((n, 2)) * np.exp(-np.linspace(0.0, 30.0, n))[:, None]
    ladder = (5.0, 0.5, 1e-3, 1e-9, 1e-300)     # the last rung is never reached
    for tail, start, spacing in ((VectorSequence(-4, values), -4.0, 1.0),
                                 (GridFunction(-2.5, 0.125, values), -2.5, 0.125)):
        report = decay_test(tail, ladder)
        entries, profile = reference_decay(values, ladder, start, spacing)
        assert report.ladder == entries
        np.testing.assert_array_equal(bits(report.monotone_tail_sup), bits(profile))


def test_sequence_demo_peak_memory_stays_near_what_it_keeps():
    # tracemalloc counts numpy's buffers as they are allocated, so the peak is the same on
    # every run.  6.2 keeps the orbit (8 B an orbit row); its scans read the orbit in row
    # chunks.  Building psi over every row (16 B) and an 8 B anchor gap peaked at 41 B a
    # row, and phi, psi and theta over every row at 72 B.
    catalog.run_sequence_demo(horizon=2000)
    tracemalloc.start()
    try:
        demo = catalog.run_sequence_demo(horizon=200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = len(demo.orbit)
    assert peak <= 16 * rows, f"peak {peak / rows:.1f} B an orbit row, over 16"


def tail_never_rises(theta: np.ndarray) -> bool:
    """The facts 6.2's tail checks rest on: computed row norms that never increase, and a
    second component of +0.0 from row ``SEQUENCE_TAIL_FLAT`` on."""
    norms = row_norms(theta)
    flat = bits(theta[catalog.SEQUENCE_TAIL_FLAT:, 1])
    return bool(np.all(norms[1:] <= norms[:-1]) and not flat.any())


def test_sequence_tail_never_rises_over_the_demo_window():
    theta = sequence_tail(np.arange(10 ** 6 + 22, dtype=float))
    assert tail_never_rises(theta)
    assert theta[catalog.SEQUENCE_TAIL_FLAT - 1, 1] > 0.0     # 1.0e-316: the flat part starts
    for row, component in ((500, 0), (500, 1), (catalog.SEQUENCE_TAIL_FLAT, 1)):
        bumped = theta.copy()
        bumped[row, component] = 2.0 * theta[row, 0] if component == 0 else 5e-324
        assert not tail_never_rises(bumped), (row, component)


def test_sequence_demo_refuses_a_tail_that_rises_before_it_flattens(monkeypatch):
    def bumped(indices):
        out = sequence_tail(indices)
        out[np.asarray(indices) == 20] *= 3.0
        return out
    monkeypatch.setattr(catalog, "sequence_tail", bumped)
    with pytest.raises(DomainError, match="increase below index 28"):
        catalog.run_sequence_demo(horizon=100)


@pytest.mark.parametrize("horizon", [1, 6, 7, 120, 121, 1001, 1002, 2000, 60_000])
def test_sequence_demo_tail_checks_match_the_full_tail(horizon):
    # the decay report and the witness from the closed form equal those of the whole
    # theta over the window, whose rows run from 23 (no sampled row below the last rung)
    # past 1,024 (a profile stride above one) to 60,022
    demo = catalog.run_sequence_demo(horizon=horizon)
    full = build_sequence_triple(demo.orbit)
    assert demo.decay == decay_test(full.theta, catalog.SEQUENCE_LADDER)
    assert demo.witness == non_unpredictability_witness(full, catalog.SEQUENCE_PSI_SUP)
    assert demo.psi_sup == full.psi.sup_norm()
    assert demo.evidence == collect_evidence(full.psi, horizon=horizon)
    rows = min(len(full.phi), catalog.SEQUENCE_CSV_ROWS)
    for part in ("phi", "psi", "theta"):
        np.testing.assert_array_equal(bits(getattr(demo.triple, part).values),
                                      bits(getattr(full, part).values[:rows]))


@pytest.mark.parametrize("seed", [0.41, 0.37, 0.912345, 0.05])
def test_psi_sup_from_the_largest_kappa(seed):
    demo = catalog.run_sequence_demo(seed=seed, horizon=10 ** 5)
    assert demo.psi_sup == sequence_psi(demo.orbit).sup_norm()
