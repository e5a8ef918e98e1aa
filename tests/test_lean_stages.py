"""The in-place 6.2 stages give the bits of the expressions they replace, in bounded memory.

Each reference below is the plain numpy expression the stage used to evaluate
with full-size temporaries; the stage must reproduce its uint64 bit patterns.
"""

import tracemalloc

import numpy as np
import pytest

from updyn import catalog
from updyn.chaos import GridFunction, logistic_orbit
from updyn.constructs import (DecompositionTriple, VectorSequence, build_sequence_triple,
                              non_unpredictability_witness, sequence_tail)
from updyn.detectors import decay_test


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
    orbit = logistic_orbit(0.37, 1000, 5000).rebased(base)
    kappa = orbit.values
    psi = np.stack([kappa, 0.25 * kappa], axis=-1)
    theta = reference_tail(base + np.arange(len(orbit)))
    triple = build_sequence_triple(orbit)
    for part, want in (("phi", psi + theta), ("psi", psi), ("theta", theta)):
        got = getattr(triple, part)
        assert got.t_start == base
        np.testing.assert_array_equal(bits(got.values), bits(want))


def test_witness_matches_the_index_array_scan():
    orbit = logistic_orbit(0.41, 1000, 3000).rebased(-40)
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
    # tracemalloc counts numpy's buffers as they are allocated, so the peak is the
    # same on every run; the copying stages reached 1.71x of the kept bytes
    catalog.run_sequence_demo(horizon=2000)
    tracemalloc.start()
    try:
        demo = catalog.run_sequence_demo(horizon=200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = demo.orbit.values.nbytes + sum(getattr(demo.triple, part).values.nbytes
                                          for part in ("phi", "psi", "theta"))
    assert peak <= 1.5 * kept, f"peak {peak / kept:.2f}x the orbit and triple bytes"
