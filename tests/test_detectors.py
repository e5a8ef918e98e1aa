import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from updyn import catalog, detectors
from updyn.chaos import ROW_CHUNK, GridFunction, convolve_exponential, logistic_orbit
from updyn.constructs import PSI_SCALE, VectorSequence, build_sequence_triple, sequence_psi
from updyn.detectors import (DEFAULT_LADDER, NearReturn, SeparationEvent,
                             UnpredictabilityEvidence, collect_evidence, decay_test,
                             evidence_for_function, find_near_returns, find_separations,
                             sensitivity, separation_at, verify_evidence)
from updyn.errors import ArgumentError, DomainError, GridMismatchError, ResolutionError


def constant_seq(n=200, value=(0.3, -0.4)):
    return VectorSequence(0, np.tile(np.asarray(value, dtype=float), (n, 1)))


class TestNearReturns:
    def test_constant_sequence_returns_immediately(self):
        seq = constant_seq()
        found = find_near_returns(seq, 10, (0.2, 0.1, 0.05))
        assert [r.shift for r in found] == [1, 2, 3]
        assert all(r.achieved == 0.0 for r in found)

    def test_period_two_needs_even_shifts(self):
        vals = np.array([[0.0], [1.0]] * 100)
        seq = VectorSequence(0, vals)
        found = find_near_returns(seq, 10, (0.5, 0.3, 0.1))
        assert all(r.found and r.shift % 2 == 0 for r in found)

    def test_logistic_window_finds_rung(self, sequence_demo):
        # the chaotic source re-approaches its own 21-step window within the
        # scanned horizon at closeness 0.05 for the default seed
        shifts = {r.target: r.shift for r in sequence_demo.evidence.return_times}
        assert shifts[0.05] is not None

    def test_ladder_must_decrease(self):
        with pytest.raises(DomainError):
            find_near_returns(constant_seq(), 5, (0.1, 0.2))

    def test_fractional_horizon_is_refused(self):
        with pytest.raises(ArgumentError) as info:
            collect_evidence(constant_seq(3000), horizon=2000.7)
        assert info.value.names == ("horizon",)

    def test_unreachable_rung_reported_not_found(self):
        rng = np.random.default_rng(0)
        seq = VectorSequence(0, rng.uniform(0, 1, (300, 1)))
        found = find_near_returns(seq, 20, (1e-9,))
        assert found[0].shift is None


class TestSeparations:
    def test_constant_sequence_never_separates(self):
        events = find_separations(constant_seq(), [1, 2, 5], epsilon0=0.1)
        assert events == []

    def test_alternating_signs_separate_at_origin(self):
        vals = np.array([[1.0], [-1.0]] * 50)
        seq = VectorSequence(0, vals)
        events = find_separations(seq, [1, 3], epsilon0=2.0)
        assert [(e.shift, e.offset, e.separation) for e in events] == [
            (1, 0, 2.0), (3, 0, 2.0)]

    def test_logistic_separations_found(self, sequence_demo):
        assert len(sequence_demo.evidence.separation_times) > 0
        for event in sequence_demo.evidence.separation_times:
            assert event.separation >= 0.3

    def test_reevaluation_matches(self, sequence_demo):
        psi = sequence_psi(sequence_demo.orbit)
        for event in sequence_demo.evidence.separation_times:
            assert separation_at(psi, event.shift, event.offset) == event.separation


class TestFunctionEvidence:
    def test_constant_function_returns_everywhere(self):
        grid = GridFunction(0.0, 0.05, np.tile([0.5, 0.5], (400, 1)))
        ev = evidence_for_function(grid, (0.0, 2.0), ladder=(0.2, 0.1),
                                   epsilon0=0.1, delta=0.2)
        assert [r.shift for r in ev.return_times] == [1, 2]
        assert ev.separation_times == ()

    def test_interval_width_arithmetic(self):
        grid = GridFunction(0.0, 0.0125, np.zeros((800, 1)))
        ev = evidence_for_function(grid, (0.0, 1.0), ladder=(0.1,),
                                   epsilon0=0.05, delta=0.05)
        nodes = 2 * round(ev.interval_halfwidth / ev.time_step) + 1
        assert nodes == 9

    def test_resolution_guard(self):
        grid = GridFunction(0.0, 0.05, np.zeros((100, 1)))
        with pytest.raises(ResolutionError):
            evidence_for_function(grid, (0.0, 1.0), delta=0.1)

    @pytest.mark.parametrize("horizon, min_shift, names", [
        (100.0, 25.0, ("window", "min_shift")),   # past the last shift the span leaves
        (0.5, 1.0, ("horizon", "min_shift")),     # above the horizon
    ])
    def test_empty_shift_range_names_what_shortens_it(self, horizon, min_shift, names):
        grid = GridFunction(0.0, 0.05, np.zeros((400, 1)))
        with pytest.raises(ArgumentError) as info:
            evidence_for_function(grid, (0.0, 1.0), min_shift=min_shift, horizon=horizon)
        assert info.value.names == names

    def test_huge_horizon_scans_the_whole_grid(self):
        times = 0.05 * np.arange(400)
        grid = GridFunction(0.0, 0.05, np.stack([np.sin(times), np.cos(3 * times)], axis=-1))
        huge, covering = (evidence_for_function(grid, (0.0, 1.0), min_shift=1.0, horizon=h)
                          for h in (1.7e308, 20.0))
        assert huge == covering

    def test_horizon_bounds_separation_offsets(self):
        # flat up to t = 60, then a ramp on which every shift separates
        times = 0.05 * np.arange(2001)
        grid = GridFunction(0.0, 0.05, 10.0 * np.maximum(times - 60.0, 0.0))
        far, near = (evidence_for_function(grid, (0.0, 1.0), ladder=(0.5, 0.3, 0.2),
                                           epsilon0=0.2, horizon=h) for h in (80.0, 20.0))
        assert far.found_shifts() == near.found_shifts() == [1, 2, 3]
        assert [round(e.center_time) for e in far.separation_times] == [60, 60, 60]
        assert near.separation_times == ()
        assert verify_evidence(grid, far) and verify_evidence(grid, near)

    def test_demo_evidence_verified(self):
        demo = catalog.run_function_demo(t_hi=120.0)
        assert demo.evidence_verified
        assert verify_evidence(demo.triple.phi, demo.evidence)


class TestDecay:
    def test_sequence_tail_rung(self):
        triple = build_sequence_triple(catalog.source_orbit(length=100))
        report = decay_test(triple.theta, (0.5, 0.02))
        assert report.crossing(0.02) == 10

    def test_function_tail_rung(self):
        from updyn.constructs import function_tail
        times = -5.0 + 0.05 * np.arange(701)
        grid = GridFunction(-5.0, 0.05, function_tail(times))
        report = decay_test(grid, (0.5, 1e-6))
        assert 14.5 <= report.crossing(1e-6) <= 15.5

    def test_zero_tail_crosses_at_start(self):
        seq = VectorSequence(5, np.zeros((40, 2)))
        report = decay_test(seq, (0.1, 0.01))
        assert all(where == 5 for _, where in report.ladder)

    def test_profile_monotone(self):
        triple = build_sequence_triple(catalog.source_orbit(length=500))
        report = decay_test(triple.theta, (0.5, 0.01))
        profile = np.array(report.monotone_tail_sup)
        assert np.all(np.diff(profile) <= 1e-15)

    def test_unreached_rung_is_none(self):
        seq = VectorSequence(0, np.ones((50, 1)))
        report = decay_test(seq, (0.5,))
        assert report.crossing(0.5) is None


class TestSensitivity:
    def test_logistic_map_diverges(self):
        a, b = (logistic_orbit(x0, 0, 201) for x0 in (0.41, 0.41 + 1e-10))
        step = sensitivity(a, b, 0.3)
        assert isinstance(step, int) and step <= 200
        # the gap grows exponentially up to the separation: a positive log-gap slope
        gaps = np.abs(a.values[:step + 1, 0] - b.values[:step + 1, 0])
        k = np.nonzero(gaps > 0.0)[0]
        assert np.polyfit(k, np.log(gaps[k]), 1)[0] > 0.1

    def test_stable_linear_map_never_diverges(self):
        halving = 0.5 ** np.arange(200.0)
        assert sensitivity(VectorSequence(0, 0.4 * halving),
                           VectorSequence(0, (0.4 + 1e-6) * halving), 0.1) is None

    def test_zero_perturbation_never_diverges(self):
        orbit = logistic_orbit(0.41, 0, 2000)
        assert sensitivity(orbit, orbit, 0.3) is None

    def test_grid_position_is_a_time(self):
        apart = np.zeros((6, 2))
        apart[3:] = (0.3, 0.4)  # a gap of 0.5, first at row 3
        assert sensitivity(GridFunction(2.0, 0.5, np.zeros((6, 2))),
                           GridFunction(2.0, 0.5, apart), 0.5) == 3.5

    def test_threshold_and_axis_refusals(self):
        orbit = logistic_orbit(0.41, 0, 50)
        with pytest.raises(DomainError):
            sensitivity(orbit, orbit, 0.0)
        with pytest.raises(GridMismatchError):
            sensitivity(orbit, logistic_orbit(0.41, 0, 51), 0.3)
        with pytest.raises(GridMismatchError):
            sensitivity(orbit, GridFunction(0.0, 1.0, orbit.values), 0.3)


class TestEvidenceConsistency:
    def test_sequence_demo_reverification(self, sequence_demo):
        assert sequence_demo.evidence_verified
        assert verify_evidence(sequence_psi(sequence_demo.orbit), sequence_demo.evidence)

    def test_manual_recheck_of_returns(self, sequence_demo):
        psi = sequence_psi(sequence_demo.orbit)
        for ret in sequence_demo.evidence.return_times:
            if not ret.found:
                continue
            worst = max(float(np.linalg.norm(psi.values[i + ret.shift] - psi.values[i]))
                        for i in range(ret.window + 1))
            assert worst < ret.target
            assert worst == ret.achieved

    def test_tampered_evidence_fails(self, sequence_demo):
        import dataclasses
        ev = sequence_demo.evidence
        if not ev.separation_times:
            pytest.skip("no separations recorded")
        bad_sep = dataclasses.replace(ev.separation_times[0],
                                      separation=ev.separation_times[0].separation + 1.0)
        bad = dataclasses.replace(ev, separation_times=(bad_sep,) + ev.separation_times[1:])
        assert not verify_evidence(sequence_psi(sequence_demo.orbit), bad)

    # Each re-check covers every row it names: evidence that holds at all of them but
    # one fails.  None breaks no row, and the evidence holds.

    @pytest.mark.parametrize("scale", [None, (1.0, 0.25)])
    @pytest.mark.parametrize("broken", [None, 0, 1, 2, 3, 4, 5])
    def test_every_offset_of_a_return_window_counts(self, scale, broken):
        # the window of rows 3..8 recurs at shift 40 with key gaps 0.01, but 0.5 at ``broken``
        key = np.zeros(100)
        key[43:49] = 0.01
        if broken is not None:
            key[43 + broken] = 0.5
        achieved = float(np.linalg.norm(0.01 * np.asarray(scale or (1.0,))))
        ev = UnpredictabilityEvidence("sequence", 0, (NearReturn(0.1, 40, achieved, 5),), (),
                                      epsilon0_estimate=0.0, scanned_horizon=50, anchor=3)
        assert verify_evidence(VectorSequence(0, key), ev, scale) == (broken is None)

    @pytest.mark.parametrize("tampered", [None, 0, 1, 2])
    def test_every_separation_counts(self, tampered):
        key = np.zeros(100)
        key[[60, 75, 90]] = 1.0, 2.0, 3.0   # gaps under shift 50 at offsets 10, 25 and 40
        seps = tuple(SeparationEvent(50, offset, gap + 0.5 * (k == tampered))
                     for k, (offset, gap) in enumerate([(10, 1.0), (25, 2.0), (40, 3.0)]))
        ev = UnpredictabilityEvidence("sequence", 0, (), seps, epsilon0_estimate=1.0,
                                      scanned_horizon=50)
        assert verify_evidence(VectorSequence(0, key), ev) == (tampered is None)

    @pytest.mark.parametrize("broken", [None, *range(9)])
    def test_every_node_of_a_separation_interval_counts(self, broken):
        # shift 100 takes the 9 nodes 1,090..1,098 around 1,094 (half-width 0.2 on step
        # 0.05) onto rows 2.0 away, but the one under ``broken`` 0.5 away
        values = np.zeros((1300, 1))
        values[1190:1199] = 2.0
        if broken is not None:
            values[1190 + broken] = 0.5
        ev = UnpredictabilityEvidence(
            "function", 0, (), (SeparationEvent(100, 1094, 2.0, 1094 * 0.05),),
            epsilon0_estimate=1.5, scanned_horizon=100, epsilon0_requested=1.5,
            time_step=0.05, interval_halfwidth=0.2)
        assert verify_evidence(GridFunction(0.0, 0.05, values), ev) == (broken is None)


# ---------------------------------------------------------------------------
# dense oracles for the early-abandon scans


def reference_near_returns(values, anchor, window, cap, ladder, first=1):
    """Chunked dense gather: every candidate compared over the whole window at once.

    Returns one ``(shift, achieved)`` pair per rung, ``(None, None)`` when not found.
    """
    head = values[anchor:anchor + window + 1]
    anchor_gap = np.linalg.norm(values[anchor + 1:anchor + cap + 1] - values[anchor], axis=1)
    offsets = np.arange(anchor, anchor + window + 1)
    found = []
    prev = first - 1
    for target in ladder:
        candidates = np.nonzero(anchor_gap[prev:] < target)[0] + prev + 1
        hit = (None, None)
        for lo in range(0, candidates.size, 4096):
            batch = candidates[lo:lo + 4096]
            gather = values[batch[:, None] + offsets[None, :]] - head[None, :, :]
            worst = np.sqrt((gather * gather).sum(-1)).max(1)
            ok = np.nonzero(worst < target)[0]
            if ok.size:
                hit = (int(batch[ok[0]]), float(worst[ok[0]]))
                break
        found.append(hit)
        if hit[0] is not None:
            prev = hit[0]
    return found


def reference_separations(values, shifts, epsilon0, horizon):
    """Full-array norm per shift: ``(shift, offset, separation)`` of the first separation."""
    n = len(values)
    events = []
    for z in shifts:
        cap = min(int(horizon), n - z - 1)
        gap = np.linalg.norm(values[z:z + cap + 1] - values[:cap + 1], axis=1)
        hits = np.nonzero(gap >= epsilon0)[0]
        if hits.size:
            events.append((z, int(hits[0]), float(gap[hits[0]])))
    return events


def reference_grid_separations(values, shifts, epsilon0, half):
    """Every centre tried in turn: ``(shift, offset, separation)`` of the first offset u
    whose gap is at least epsilon0 at every offset of [u - half, u + half]."""
    events = []
    for z in shifts:
        gap = np.linalg.norm(values[z:] - values[:len(values) - z], axis=1)
        for u in range(half, gap.size - half):
            if all(gap[o] >= epsilon0 for o in range(u - half, u + half + 1)):
                events.append((z, u, float(gap[u])))
                break
    return events


def scanned(returns):
    return [(r.shift, r.achieved) for r in returns]


def separated(events):
    return [(e.shift, e.offset, e.separation) for e in events]


def assert_sequence_scans_match(seq, window, ladder, horizon, epsilon0):
    returns = find_near_returns(seq, window, ladder, horizon)
    cap = min(int(horizon), len(seq) - 1 - window)
    expected = reference_near_returns(seq.values, 0, window, cap, ladder)
    assert scanned(returns) == expected
    assert all(r.window == window for r in returns)
    shifts = [r.shift for r in returns if r.found]
    events = find_separations(seq, shifts, epsilon0, horizon)
    assert separated(events) == reference_separations(seq.values, shifts, epsilon0, horizon)
    return returns, events


def planted_return(hit, window, n):
    """1-d sequence whose window ``[0, 1, 0, ...]`` recurs exactly, and only, at ``hit``.

    Every shift except 1 and ``hit + 1`` passes the anchor gap at rung 0.5, so
    ``hit`` is candidate number ``hit - 1``.
    """
    values = np.zeros((n, 1))
    values[1] = values[hit + 1] = 1.0
    return VectorSequence(0, values)


def planted_intervals(n, runs):
    """Grid function, zero but for ±1 stretches, whose gap under shift 1 is 2 on the
    offsets of each ``(first, last)`` run and at most 1 elsewhere."""
    values = np.zeros((n, 1))
    for first, last in runs:
        values[first:last + 2, 0] = (-1.0) ** np.arange(last + 2 - first)
    return GridFunction(0.0, 0.05, values)


class TestEarlyAbandonScans:
    @pytest.mark.parametrize("seed", [catalog.DEFAULT_SEED, 0.05])
    def test_demo_psi_matches_dense_scans(self, sequence_demo, seed):
        if seed == catalog.DEFAULT_SEED:
            psi = sequence_psi(sequence_demo.orbit)
        else:
            psi = build_sequence_triple(catalog.source_orbit(seed, length=10 ** 6 + 22)).psi
        returns, events = assert_sequence_scans_match(psi, 20, DEFAULT_LADDER, 10 ** 6, 0.3)
        assert sum(r.found for r in returns) >= 3
        assert events

    # windows up to 120 (6.1 compares 101 offsets) take both of _first_survivor's
    # branches: one offset at a time, and every offset left in one pass
    @settings(max_examples=40, deadline=None)
    @given(dim=st.integers(1, 3), n=st.integers(30, 6000), window=st.integers(0, 120),
           period=st.one_of(st.none(), st.integers(1, 60)),
           noise=st.sampled_from([0.0, 1e-3, 0.05]),
           rungs=st.lists(st.floats(1e-3, 2.0), min_size=1, max_size=4, unique=True),
           horizon_frac=st.floats(0.05, 1.0), epsilon0=st.floats(0.01, 1.5),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_dense_scans(self, dim, n, window, period, noise, rungs, horizon_frac,
                                 epsilon0, seed):
        rng = np.random.default_rng(seed)
        if period is None:
            values = rng.uniform(-1.0, 1.0, (n, dim))
        else:
            cycle = rng.uniform(-1.0, 1.0, (period, dim))
            values = np.resize(cycle, (n, dim)) + noise * rng.standard_normal((n, dim))
        seq = VectorSequence(0, values)
        window = min(window, n - 2)
        ladder = sorted(rungs, reverse=True)
        horizon = max(1, int(horizon_frac * n))
        assert_sequence_scans_match(seq, window, ladder, horizon, epsilon0)

    @pytest.mark.parametrize("rank", [2047, 2048, 2049, 6143, 6144, 6145])
    @pytest.mark.parametrize("window", [1, 7])
    def test_hit_at_chunk_boundary(self, rank, window):
        hit = rank + 1
        seq = planted_return(hit, window, hit + window + 3000)
        returns = find_near_returns(seq, window, (0.5,))
        assert scanned(returns) == [(hit, 0.0)]
        assert scanned(returns) == reference_near_returns(seq.values, 0, window,
                                                          len(seq) - 1 - window, (0.5,))

    @pytest.mark.parametrize("window", [1, 7, 20, 100])
    def test_one_pass_tests_the_last_offset(self, window):
        # Keys are 0 on the anchor window and on the windows at shifts 500 and 900, 5
        # elsewhere: 3 * window + 2 candidates, of which only 500 and 900 pass the key, and
        # those two take the rows' one-pass branch.  Shift 500's rows pass at every offset
        # but the last, where its second column is 1.  Shift 900 returns exactly.
        values = np.zeros((1200, 2))
        values[window + 1:, 0] = 5.0
        for z in (500, 900):
            values[z:z + window + 1, 0] = 0.0
        values[500 + window, 1] = 1.0
        seq = VectorSequence(0, values)
        returns = find_near_returns(seq, window, (0.5,))
        assert scanned(returns) == [(900, 0.0)]
        assert scanned(returns) == reference_near_returns(values, 0, window,
                                                          len(seq) - 1 - window, (0.5,))

    @pytest.mark.parametrize("demo", ["6.1", "6.2"])
    def test_one_pass_reads_at_most_a_chunk(self, monkeypatch, sequence_demo, demo):
        # a one-pass call is the one whose origin is an index array, not a row index
        gaps, read = detectors._Rows.gaps, []

        def counted(rows, at, origin):
            if isinstance(origin, np.ndarray):
                read.append(np.size(at))
            return gaps(rows, at, origin)

        monkeypatch.setattr(detectors._Rows, "gaps", counted)
        if demo == "6.1":
            returns = catalog.run_function_demo().evidence.return_times
        else:
            returns = find_near_returns(sequence_demo.orbit, detectors.SCAN_WINDOW,
                                        DEFAULT_LADDER, scale=PSI_SCALE)
            assert tuple(returns) == sequence_demo.evidence.return_times
        assert any(r.found for r in returns)
        assert read and max(read) <= detectors._RETURN_CHUNK

    def test_rungs_never_found(self):
        seq = VectorSequence(0, np.random.default_rng(5).uniform(0, 1, (20000, 2)))
        returns, _ = assert_sequence_scans_match(seq, 12, (0.3, 0.1, 1e-6), 10 ** 6, 0.3)
        assert returns[-1].shift is None

    def test_horizon_shorter_than_sequence(self):
        seq = planted_return(5000, 4, 9000)
        inside = find_near_returns(seq, 4, (0.5,), horizon=5000)
        outside = find_near_returns(seq, 4, (0.5,), horizon=4999)
        assert scanned(inside) == [(5000, 0.0)]
        assert scanned(outside) == [(None, None)]
        assert scanned(outside) == reference_near_returns(seq.values, 0, 4, 4999, (0.5,))

    def test_window_zero_takes_first_candidate(self):
        values = np.random.default_rng(8).uniform(0, 1, (5000, 3))
        seq = VectorSequence(0, values)
        returns, _ = assert_sequence_scans_match(seq, 0, (0.4, 0.2, 0.1), 10 ** 6, 0.5)
        gap = np.linalg.norm(values[1:] - values[0], axis=1)
        assert returns[0].shift == int(np.nonzero(gap < 0.4)[0][0]) + 1
        assert returns[0].achieved == float(gap[returns[0].shift - 1])

    @pytest.mark.parametrize("jump", [4096, 4097, 9000, 12289])
    def test_separation_past_first_chunk(self, jump):
        # shift 1 first separates at offset jump - 1: the last row of the first
        # 4,096-row chunk, the first of the second, inside it, the first of the third
        values = np.zeros((20000, 2))
        values[jump:] = 1.0
        seq = VectorSequence(0, values)
        events = find_separations(seq, [1, 3, 40], epsilon0=0.5)
        assert separated(events) == [(z, jump - z, math.sqrt(2.0)) for z in (1, 3, 40)]
        assert separated(events) == reference_separations(values, [1, 3, 40], 0.5, 10 ** 6)

    @pytest.mark.parametrize("cap", [0, 4095, 4096, 12288])
    def test_separation_at_the_horizon(self, cap):
        values = np.zeros((cap + 20, 1))
        values[cap + 2:] = 1.0
        seq = VectorSequence(0, values)
        assert separated(find_separations(seq, [2], epsilon0=0.5, horizon=cap)) == [
            (2, cap, 1.0)]
        assert reference_separations(values, [2], 0.5, cap) == [(2, cap, 1.0)]
        if cap:
            assert find_separations(seq, [2], epsilon0=0.5, horizon=cap - 1) == []

    def test_no_separation_within_horizon(self):
        values = np.zeros((12000, 1))
        values[9000:] = 1.0
        seq = VectorSequence(0, values)
        assert find_separations(seq, [1, 2], epsilon0=0.5, horizon=8997) == []
        assert separated(find_separations(seq, [2], epsilon0=0.5, horizon=8998)) == [
            (2, 8998, 1.0)]
        assert reference_separations(values, [1, 2], 0.5, 8997) == []

    @pytest.mark.parametrize("min_shift", [0.0, 0.05, 1.0, 3.3])
    def test_function_scan_matches_dense_gather(self, min_shift):
        orbit = catalog.source_orbit(0.37, length=260)
        phi = convolve_exponential(orbit, decay=2.0, step=0.05)
        span, ladder = (60.0, 65.0), (0.5, 0.3, 0.2, 0.05)
        ev = evidence_for_function(phi, span, ladder=ladder, epsilon0=0.2, delta=0.2,
                                   min_shift=min_shift)
        j0, j1 = phi.index_at(span[0]), phi.index_at(span[1])
        first = max(1, round(min_shift / phi.step))
        expected = reference_near_returns(phi.values, j0, j1 - j0, ev.scanned_horizon,
                                          ladder, first)
        assert scanned(ev.return_times) == expected
        assert all(r.shift >= first for r in ev.return_times if r.found)
        assert any(r.found for r in ev.return_times)
        assert separated(ev.separation_times) == reference_grid_separations(
            phi.values, [r.shift for r in ev.return_times if r.found], 0.2, 4)
        assert verify_evidence(phi, ev)

    @pytest.mark.parametrize("run, centre", [
        ((4090, 4100), 4094),   # the first interval of 9 nodes straddles offset 4,096
        ((5990, 5998), 5994),   # the only one ends at the last offset of shift 1
    ])
    def test_grid_separation_matches_brute_force(self, run, centre):
        # delta = 0.2 on step 0.05: an interval of 2 * 4 + 1 nodes.  The stretch of
        # 8 offsets before it is one node too short to count.
        phi = planted_intervals(6000, [(100, 107), run])
        ev = evidence_for_function(phi, (0.0, 1.0), ladder=(0.5,), epsilon0=1.5, delta=0.2)
        assert separated(ev.separation_times) == [(1, centre, 2.0)]
        assert reference_grid_separations(phi.values, [1], 1.5, 4) == [(1, centre, 2.0)]
        assert ev.separation_times[0].center_time == pytest.approx(0.05 * centre)
        assert verify_evidence(phi, ev)


# ---------------------------------------------------------------------------
# a one-column key with a scale whose first entry is 1 stands for the rows key * scale


SCALES = [(1.0,), (1.0, 0.25), (1.0, 2.0, 0.5), (1.0, 0.3), (1.0, 3.0, 1e-3)]


def key_rows(key, scale):
    return VectorSequence(0, np.asarray(key, dtype=float)[:, None] * np.asarray(scale))


def least_gap_at(rung, scale):
    """The least double T with ``not g(T) < rung``, g(x) the row norm of x * scale summed
    left to right as ``row_norms`` sums it; bisected over the bit patterns of the doubles,
    which order them.  A key gap x planted against zeros has the row gap g(x)."""
    lo, hi = 0, 0x7FF0000000000000   # the bits of +0.0 and +inf
    while lo < hi:
        mid, total = (lo + hi) // 2, 0.0
        x = float(np.int64(mid).view(np.float64))
        for s in map(float, scale):   # left to right, not ``sum``, which may compensate
            total += (s * x) * (s * x)
        lo, hi = (mid + 1, hi) if math.sqrt(total) < rung else (lo, mid)
    return float(np.int64(lo).view(np.float64))


def assert_key_scans_match(key, scale, window, ladder, horizon, epsilon0, shifts=()):
    """The scans of the key with ``scale`` equal the row scans of key * scale, field for field."""
    seq, rows = VectorSequence(0, key), key_rows(key, scale)
    returns = find_near_returns(seq, window, ladder, horizon, scale)
    assert returns == find_near_returns(rows, window, ladder, horizon)
    shifts = sorted({*shifts, *(r.shift for r in returns if r.found)})
    events = find_separations(seq, shifts, epsilon0, horizon, scale)
    assert events == find_separations(rows, shifts, epsilon0, horizon)
    return returns, events


class TestScaledKey:
    @pytest.mark.parametrize("seed", [catalog.DEFAULT_SEED, 0.37, 0.912345, 0.05, 0.73])
    def test_demo_evidence_equals_the_row_scans_of_psi(self, sequence_demo, seed):
        # 0.73 finds all four rungs by shift 41,384, so its scan ends in the second block
        demo = sequence_demo if seed == catalog.DEFAULT_SEED else catalog.run_sequence_demo(seed)
        assert demo.evidence == collect_evidence(sequence_psi(demo.orbit))
        assert demo.evidence_verified
        if seed == 0.73:
            assert all(r.found for r in demo.evidence.return_times)

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("rung", [0.2, 0.1, 0.05, 0.02, 0.3, 0.9, 1e-3])
    def test_bound_decides_as_the_row_norm(self, scale, rung):
        bound = least_gap_at(rung, scale)
        for x in (np.nextafter(bound, 0.0), bound, np.nextafter(bound, np.inf)):
            assert (key_rows([0.0, x], scale).norms()[1] < rung) == (x < bound)

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("offset", [0, 1, 3])
    @pytest.mark.parametrize("step", [-1, 0])
    def test_a_gap_at_the_bound_is_not_a_return(self, scale, offset, step):
        # the window [0, 0, 0, 0] recurs only at shift 40, where one offset's gap is the
        # least gap at the rung (step 0) or the double below it (step -1); 1.0 elsewhere
        # is far from 0
        rung, bound = 0.1, least_gap_at(0.1, scale)
        gap = bound if step == 0 else np.nextafter(bound, 0.0)
        key = np.ones(80)
        key[:4] = key[40:44] = 0.0
        key[40 + offset] = gap
        returns, _ = assert_key_scans_match(key, scale, 3, (rung,), 10 ** 6, 0.5)
        assert [r.shift for r in returns] == [None if step == 0 else 40]

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("step", [-1, 0, 1])
    def test_a_gap_at_the_bound_separates(self, scale, step):
        epsilon0 = 0.3
        bound = least_gap_at(epsilon0, scale)
        gap = np.nextafter(bound, step * np.inf) if step else bound
        key = np.zeros(200)
        key[57 + 90] = gap
        _, events = assert_key_scans_match(key, scale, 3, (0.5,), 10 ** 6, epsilon0, [57])
        assert [(e.shift, e.offset) for e in events if e.shift == 57] == (
            [] if step < 0 else [(57, 90)])

    @pytest.mark.parametrize("scale", [(1.0,), (1.0, 0.25)])
    @pytest.mark.parametrize("hit", [ROW_CHUNK - 1, ROW_CHUNK, ROW_CHUNK + 1, ROW_CHUNK + 2,
                                     2 * ROW_CHUNK, 2 * ROW_CHUNK + 1])
    def test_hit_at_an_anchor_gap_block_boundary(self, scale, hit):
        # blocks of ROW_CHUNK shifts from shift 1: shift ROW_CHUNK ends the first
        seq = planted_return(hit, 5, hit + 40)
        key = seq.values[:, 0]
        for horizon in (hit, hit - 1):
            returns, _ = assert_key_scans_match(key, scale, 5, (0.5,), horizon, 0.5)
            assert scanned(returns) == [(hit if horizon == hit else None,
                                         0.0 if horizon == hit else None)]
        assert scanned(find_near_returns(seq, 5, (0.5,))) == [(hit, 0.0)]

    @pytest.mark.parametrize("scale", [None, (1.0, 0.25)])
    @pytest.mark.parametrize("first, second", [(ROW_CHUNK - 9, ROW_CHUNK),
                                               (ROW_CHUNK, ROW_CHUNK + 9), (20, 3 * ROW_CHUNK)])
    def test_the_next_rung_starts_past_the_last_hit(self, scale, first, second):
        # two exact recurrences of the window of 8 zeros, in one anchor-gap block or two:
        # each rung takes the next one
        values = np.ones(3 * ROW_CHUNK + 40)
        values[:8] = values[first:first + 8] = values[second:second + 8] = 0.0
        seq = VectorSequence(0, values)
        rows = seq if scale is None else key_rows(values, scale)
        found = find_near_returns(seq, 7, (0.5, 0.25, 0.1), scale=scale)
        assert scanned(found) == [(first, 0.0), (second, 0.0), (None, None)]
        assert found == find_near_returns(rows, 7, (0.5, 0.25, 0.1))

    @pytest.mark.parametrize("scale", [(1.0,), (1.0, 0.25)])
    def test_a_return_whose_squares_underflow(self, scale):
        # At shift 30 the key's gaps are 1e-162, ten times the rung 1e-163, but their
        # squares round to 0, so the row gaps read 0: the key's filter must admit them.
        key = np.ones(80)
        key[:6] = 0.0
        key[30:36] = 1e-162
        assert reference_near_returns(key_rows(key, scale).values, 0, 5, 74, (1e-163,)) == [
            (30, 0.0)]
        returns, _ = assert_key_scans_match(key, scale, 5, (1e-163,), 10 ** 6, 0.5)
        assert scanned(returns) == [(30, 0.0)]

    @pytest.mark.parametrize("offset", [0, 3])
    def test_a_window_only_the_second_column_breaks(self, offset):
        # The first column of rows 0..5 recurs at shifts 30 and 70; at 30 the second
        # column breaks the window at ``offset``, so the key alone cannot decide.
        values = np.ones((120, 2))
        values[:6] = values[30:36] = values[70:76] = 0.0
        values[30 + offset, 1] = 1.0
        seq = VectorSequence(0, values)
        returns, _ = assert_sequence_scans_match(seq, 5, (0.5,), 10 ** 6, 0.5)
        assert scanned(returns) == [(70, 0.0)]

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(scale=st.sampled_from(SCALES),
           rungs=st.lists(st.floats(0.05, 0.9), min_size=1, max_size=3, unique=True),
           epsilon0=st.floats(0.05, 0.9), window=st.integers(0, 6),
           plants=st.lists(st.tuples(st.integers(0, 2), st.lists(st.integers(0, 4), min_size=7,
                                                                  max_size=7)),
                           min_size=1, max_size=4),
           background=st.integers(60, 400), horizon_frac=st.floats(0.3, 1.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_key_scans_equal_the_row_scans(self, scale, rungs, epsilon0, window, plants,
                                           background, horizon_frac, seed):
        # Keys on a grid of 2^-10 in [-1, 1], but for planted copies of the anchor window
        # whose key gaps are the least gap T of a rung or of epsilon0, a double next to
        # it, or a small grid step.  Anchor-window keys lie in [-T_min/2, 0], so each
        # planted key, key[o] + gap, is a double and the computed key gap is exactly the
        # planted one; for a scale of powers of two so is the row gap g(gap).
        rng = np.random.default_rng(seed)
        ladder = sorted(rungs, reverse=True)
        bounds = [least_gap_at(r, scale) for r in (*ladder, epsilon0)]
        low = min(bounds) / 2.0
        key = np.round(rng.uniform(-1.0, 1.0, background * (len(plants) + 1)) * 1024) / 1024
        key[:window + 1] = -np.round(rng.uniform(0.0, low, window + 1) * 1024) / 1024
        for k, (which, codes) in enumerate(plants):
            bound = bounds[min(which, len(bounds) - 1)]
            gaps = [np.nextafter(bound, 0.0), bound, np.nextafter(bound, np.inf), 0.0,
                    np.round(rng.uniform(0.0, low) * 1024) / 1024]
            z = background * (k + 1) - window // 2
            for o in range(window + 1):
                key[z + o] = key[o] + gaps[codes[o]]
                assert key[z + o] - key[o] == gaps[codes[o]]
        horizon = max(1, int(horizon_frac * key.size))
        shifts = [background * (k + 1) - window // 2 for k in range(len(plants))]
        assert_key_scans_match(key, scale, window, ladder, horizon, epsilon0,
                               [z for z in shifts if z < key.size])
        seq = VectorSequence(0, key)
        evidence = collect_evidence(seq, window, epsilon0, horizon, scale)
        assert evidence == collect_evidence(key_rows(key, scale), window, epsilon0, horizon)
        assert verify_evidence(seq, evidence, scale)

    @pytest.mark.parametrize("scale, key", [
        ((1.0, 0.3), [0.1, 0.2, 0.3]),
        ((1.0, 0.0), [0.1, 0.2, 0.3]),
        ((1.0,) * 8, [0.1, 0.2, 0.3]),
        ((1.0, 0.25), [0.1, np.nan, 0.3]),
        ((1.0, 0.25), [0.1, 5e-324, 0.3]),
        ((1.0, 0.25), [0.1, -2.0 ** -1021, 0.3]),   # subnormal once scaled
        ((1.0, 0.25), [0.1, 1.7e308, -1.7e308]),    # a difference overflows
    ], ids=["(1, 0.3)", "(1, 0)", "eight", "nan", "subnormal", "subnormal-scaled", "overflow"])
    def test_keys_once_refused_scan_as_their_rows(self, scale, key):
        # compared as text, in which a NaN gap equals itself
        seq = VectorSequence(0, np.zeros((3, 1)))
        seq.values[:, 0] = key   # a Series refuses a NaN when it is built, not after
        rows = VectorSequence(0, np.zeros((3, len(scale))))
        rows.values[:] = seq.values * scale
        # numpy warns where the overflow case's separation gaps overflow
        overflows = any(abs(a - b) == math.inf for a in key for b in key)
        with pytest.warns(RuntimeWarning) if overflows else contextlib.nullcontext():
            for scan in (lambda s, scale=None: find_near_returns(s, 0, (0.5,), scale=scale),
                         lambda s, scale=None: find_separations(s, [1, 2], 0.5, scale=scale),
                         lambda s, scale=None: collect_evidence(s, window=0, scale=scale)):
                assert repr(scan(seq, scale)) == repr(scan(rows))

    @pytest.mark.parametrize("scale, key", [
        ((0.3,), [0.1, 0.2, 0.3]),
        ((0.25, 1.0), [0.1, 0.2, 0.3]),
        ((), [0.1, 0.2, 0.3]),
        ((1.0, 0.25), [[0.1, 0.2], [0.2, 0.3], [0.3, 0.4]]),
    ], ids=["0.3", "(0.25, 1)", "empty", "two-columns"])
    def test_scale_and_key_refused_before_the_scan(self, scale, key):
        seq = VectorSequence(0, np.array(key).reshape(3, -1))
        for scan in (lambda: find_near_returns(seq, 0, (0.5,), scale=scale),
                     lambda: find_separations(seq, [1], 0.5, scale=scale),
                     lambda: collect_evidence(seq, window=0, scale=scale)):
            with pytest.raises(DomainError):
                scan()
