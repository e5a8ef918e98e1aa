"""Finite-horizon evidence for recurrence, separation, decay and sensitivity.

Nothing here proves a definitional property: the definitions quantify over
infinite index sets, while these scans cover a recorded window and say so.
Every report carries the scanned horizon, and every reported event can be
re-verified independently from the raw data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .chaos import Series, row_norms, settling_positions
from .discrete import DiscreteSystemSpec, iterate
from .errors import ArgumentError, DomainError, ResolutionError, WindowExhaustedError

DEFAULT_LADDER = (0.2, 0.1, 0.05, 0.02)
SEQUENCE_HORIZON = 10 ** 6
FUNCTION_HORIZON = 10 ** 4
# scan chunks start at these sizes and double (near-return chunks up to _RETURN_CHUNK_MAX)
_RETURN_CHUNK = 2048
_RETURN_CHUNK_MAX = 1 << 17
_SEPARATION_CHUNK = 4096


@dataclass(frozen=True)
class NearReturn:
    """A shift under which the window re-approaches itself below ``target``."""

    target: float
    shift: int | None
    achieved: float | None
    window: int

    @property
    def found(self) -> bool:
        return self.shift is not None


@dataclass(frozen=True)
class SeparationEvent:
    """An offset at which the shifted signal separates by at least epsilon0."""

    shift: int
    offset: int
    separation: float
    center_time: float | None = None


@dataclass(frozen=True)
class UnpredictabilityEvidence:
    """Finite-horizon record of near returns and separations.

    Shifts and offsets count grid positions from the window start; for grid
    functions ``time_step`` converts them to times and ``interval_halfwidth``
    is the half-width over which the separation bound held at every node.
    """

    kind: str
    base_index: int
    return_times: tuple
    separation_times: tuple
    epsilon0_estimate: float
    scanned_horizon: int
    anchor: int = 0
    epsilon0_requested: float = 0.0
    time_step: float | None = None
    interval_halfwidth: float | None = None

    def found_shifts(self) -> list[int]:
        return [r.shift for r in self.return_times if r.found]

    def validate(self) -> None:
        shifts = self.found_shifts()
        if any(b <= a for a, b in zip(shifts, shifts[1:])):
            raise DomainError("recorded shifts must increase strictly")
        targets = [r.target for r in self.return_times]
        if any(b >= a for a, b in zip(targets, targets[1:])):
            raise DomainError("closeness ladder must decrease strictly")
        if self.separation_times:
            worst = min(s.separation for s in self.separation_times)
            if worst < self.epsilon0_estimate - 1e-12:
                raise DomainError("a recorded separation undercuts the epsilon0 estimate")


@dataclass(frozen=True)
class DecayReport:
    """First positions after which the running tail sup stays below each rung."""

    ladder: tuple
    monotone_tail_sup: tuple
    start: float
    spacing: float

    def crossing(self, epsilon: float) -> float | None:
        for rung, where in self.ladder:
            if rung == epsilon:
                return where
        raise DomainError(f"{epsilon!r} is not a ladder rung")


@dataclass(frozen=True)
class DivergenceReport:
    """Sensitivity probe: did two nearby starts separate past the threshold."""

    diverged: bool
    index: int | None
    slope: float | None
    threshold: float
    perturbation: float
    horizon: int


def _validate_ladder(ladder: Sequence[float]) -> list[float]:
    rungs = [float(r) for r in ladder]
    if not rungs or any(r <= 0 for r in rungs):
        raise DomainError("ladder rungs must be positive")
    if any(b >= a for a, b in zip(rungs, rungs[1:])):
        raise DomainError("ladder must decrease strictly")
    return rungs


def _first_survivor(values: np.ndarray, head: np.ndarray, anchor: int,
                    candidates: np.ndarray, target: float) -> int | None:
    """Smallest candidate shift z with |values[anchor+z+o] - head[o]| < target at every offset.

    Candidates are taken in increasing chunks; within a chunk the surviving
    shifts are filtered one offset at a time and the chunk is abandoned as
    soon as none survives.  Offset 0 is not re-tested: the candidates passed
    it in the anchor gap.
    """
    lo, size = 0, _RETURN_CHUNK
    while lo < candidates.size:
        alive = candidates[lo:lo + size] + anchor
        for o in range(1, head.shape[0]):
            alive = alive[row_norms(values[alive + o], head[o]) < target]
            if not alive.size:
                break
        if alive.size:
            return int(alive[0]) - anchor
        lo += size
        size = min(2 * size, _RETURN_CHUNK_MAX)
    return None


def _scan_near_returns(values: np.ndarray, anchor: int, window: int, cap: int,
                       rungs: list[float], first: int = 1) -> list[NearReturn]:
    """Per rung, the smallest shift in [first, cap], above the previous rung's hit,
    under which the span ``values[anchor:anchor+window+1]`` returns below the rung.
    """
    # the anchor gap, the per-offset filter and ``achieved`` share one expression,
    # ``row_norms``, so a shift survives the filter iff its ``achieved`` is below the rung
    head = values[anchor:anchor + window + 1]
    anchor_gap = row_norms(values[anchor + 1:anchor + cap + 1], values[anchor])
    results: list[NearReturn] = []
    prev = first - 1
    for target in rungs:
        candidates = np.nonzero(anchor_gap[prev:] < target)[0] + prev + 1
        hit = _first_survivor(values, head, anchor, candidates, target)
        if hit is None:
            results.append(NearReturn(target=target, shift=None, achieved=None, window=window))
            continue
        span = values[anchor + hit:anchor + hit + window + 1]
        achieved = float(row_norms(span - head).max())
        results.append(NearReturn(target=target, shift=hit, achieved=achieved, window=window))
        prev = hit
    return results


def find_near_returns(seq: Series, window: int, ladder: Sequence[float],
                      horizon: int = SEQUENCE_HORIZON) -> list[NearReturn]:
    """Smallest strictly increasing shifts meeting each closeness rung.

    A shift z qualifies for rung delta when the whole comparison window
    satisfies max_{0<=i<=window} |seq_{i+z} - seq_i| < delta.  Rungs not met
    inside the horizon are reported with ``shift=None``.  ``ArgumentError``
    names a ``window`` that leaves no shift, or a ``horizon`` that is not one.
    """
    rungs = _validate_ladder(ladder)
    n = len(seq)
    if not 0 <= window < n - 1:
        raise ArgumentError(("window", "seq"), f"must lie in [0, {n - 1}) to leave a shift "
                                               f"in {n} rows, got {window!r}")
    if not (float(horizon).is_integer() and horizon >= 1):
        raise ArgumentError("horizon", f"must be a whole number of shifts, got {horizon!r}")
    cap = min(int(horizon), n - 1 - window)
    return _scan_near_returns(seq.values, 0, window, cap, rungs)


def find_separations(seq: Series, shifts: Sequence[int], epsilon0: float,
                     horizon: int = SEQUENCE_HORIZON) -> list[SeparationEvent]:
    """For each shift, the smallest offset with |seq_{shift+o} - seq_o| >= epsilon0."""
    if not epsilon0 > 0.0:
        raise DomainError("epsilon0 must be positive")
    values = seq.values
    n = len(seq)
    events = []
    for z in shifts:
        z = int(z)
        if not 1 <= z < n:
            raise DomainError(f"shift {z} outside the recorded window")
        cap = min(int(horizon), n - z - 1)
        lo, size = 0, _SEPARATION_CHUNK
        while lo <= cap:
            hi = min(lo + size, cap + 1)
            gap = row_norms(values[z + lo:z + hi] - values[lo:hi])
            hits = np.nonzero(gap >= epsilon0)[0]
            if hits.size:
                events.append(SeparationEvent(shift=z, offset=lo + int(hits[0]),
                                              separation=float(gap[hits[0]])))
                break
            lo, size = hi, 2 * size
    return events


def separation_at(seq: Series, shift: int, offset: int) -> float:
    """Re-evaluate one separation directly from the data."""
    return float(np.linalg.norm(seq.values[offset + shift] - seq.values[offset]))


def collect_evidence(seq: Series, window: int = 20, epsilon0: float = 0.3,
                     horizon: int = SEQUENCE_HORIZON) -> UnpredictabilityEvidence:
    """Run both scans, on the rungs of ``DEFAULT_LADDER``, and assemble the evidence record
    for a sequence."""
    returns = find_near_returns(seq, window, DEFAULT_LADDER, horizon)
    seps = find_separations(seq, [r.shift for r in returns if r.found], epsilon0, horizon)
    estimate = min((s.separation for s in seps), default=0.0)
    return UnpredictabilityEvidence(
        kind="sequence",
        base_index=seq.t_start,
        return_times=tuple(returns),
        separation_times=tuple(seps),
        epsilon0_estimate=float(estimate),
        scanned_horizon=min(int(horizon), len(seq) - 1 - window),
        anchor=0,
        epsilon0_requested=float(epsilon0),
    )


def evidence_for_function(phi: Series, window: Sequence[float],
                          ladder: Sequence[float] = DEFAULT_LADDER, epsilon0: float = 0.2,
                          delta: float = 0.2, horizon: float = FUNCTION_HORIZON,
                          min_shift: float = 0.0) -> UnpredictabilityEvidence:
    """Grid analogue of the sequence scans with shifts on grid multiples.

    Near returns compare the compact span ``window`` (absolute times) under
    shifted copies; a separation event requires the bound to hold at every
    grid node of [u - delta, u + delta].  The grid must resolve delta with at
    least four nodes per half-width.  ``min_shift`` excludes the trivially
    small shifts a continuous signal always admits.  ``ArgumentError`` names
    the argument that breaks one of these rules, or, when [min_shift, horizon]
    holds no shift, each argument that shortens that range.
    """
    if phi.step > delta / 4.0 + 1e-12:
        raise ResolutionError(("delta", "phi"), f"the grid step, {phi.step!r}, must be at "
                                                f"most delta/4 = {delta / 4.0!r}")
    rungs = _validate_ladder(ladder)
    try:
        j0, j1 = (phi.index_at(float(t)) for t in window)
    except (DomainError, WindowExhaustedError) as exc:
        raise ArgumentError("window", f"must span grid nodes: {exc}") from None
    if j1 <= j0:
        raise ArgumentError("window", "must be an increasing span")
    values = phi.values
    n = len(phi)
    if not math.isfinite(min_shift / phi.step):
        raise ArgumentError("min_shift", f"is {min_shift!r}, which overflows as a count of "
                                         f"grid steps of {phi.step:g}")
    first = max(1, int(round(min_shift / phi.step)))
    # clamped where its size stops mattering, so that a huge horizon cannot overflow
    by_horizon = round(min(horizon / phi.step, max(n, first)))
    cap = min(by_horizon, n - 1 - j1)
    if cap < first:
        shorten = ("horizon",) * (by_horizon < first) + ("window",) * (n - 1 - j1 < first)
        raise ArgumentError((*shorten, "min_shift"), f"leaves no shift to scan: a shift must be "
                            f"at least {first * phi.step:g} and at most {cap * phi.step:g}")

    returns = _scan_near_returns(values, j0, j1 - j0, cap, rungs, first)

    half = int(round(delta / phi.step))
    run = 2 * half + 1
    seps: list[SeparationEvent] = []
    for ret in returns:
        if not ret.found:
            continue
        z = ret.shift
        gap = row_norms(values[z:] - values[:n - z])
        good = (gap >= epsilon0).astype(int)
        if good.size >= run:
            streak = np.convolve(good, np.ones(run, dtype=int), mode="valid")
            centers = np.nonzero(streak == run)[0]
            if centers.size:
                u = int(centers[0]) + half
                seps.append(SeparationEvent(
                    shift=z, offset=u, separation=float(gap[u]),
                    center_time=float(phi.t_start + u * phi.step)))
    estimate = min((s.separation for s in seps), default=0.0)
    return UnpredictabilityEvidence(
        kind="function",
        base_index=0,
        return_times=tuple(returns),
        separation_times=tuple(seps),
        epsilon0_estimate=float(estimate),
        scanned_horizon=int(cap),
        anchor=j0,
        epsilon0_requested=float(epsilon0),
        time_step=phi.step,
        interval_halfwidth=half * phi.step,
    )


def verify_evidence(data: Series, evidence: UnpredictabilityEvidence) -> bool:
    """Plain re-check of every recorded event straight from the raw data."""
    values = data.values
    for ret in evidence.return_times:
        if not ret.found:
            continue
        worst = 0.0
        for i in range(evidence.anchor, evidence.anchor + ret.window + 1):
            worst = max(worst, float(np.linalg.norm(values[i + ret.shift] - values[i])))
        if not worst < ret.target:
            return False
        if abs(worst - ret.achieved) > 1e-12:
            return False
    for sep in evidence.separation_times:
        gap = float(np.linalg.norm(values[sep.offset + sep.shift] - values[sep.offset]))
        if abs(gap - sep.separation) > 1e-12 or gap < evidence.epsilon0_estimate - 1e-12:
            return False
    if evidence.kind == "function" and evidence.interval_halfwidth is not None:
        half = int(round(evidence.interval_halfwidth / evidence.time_step))
        for sep in evidence.separation_times:
            lo, hi = sep.offset - half, sep.offset + half
            if lo < 0 or hi + sep.shift >= len(values):
                return False
            for i in range(lo, hi + 1):
                if np.linalg.norm(values[i + sep.shift] - values[i]) < evidence.epsilon0_requested - 1e-12:
                    return False
    evidence.validate()
    return True


def decay_test(tail: Series, ladder: Sequence[float]) -> DecayReport:
    """Locate, per rung, the first position whose running tail sup stays below it."""
    rungs = _validate_ladder(ladder)
    start, spacing = float(tail.t_start), float(tail.step)
    suffix = tail.norms()
    entries = [(rung, None if k is None else start + spacing * k)
               for rung, k in zip(rungs, settling_positions(suffix, rungs))]
    stride = max(1, suffix.size // 512)
    profile = tuple(float(x) for x in suffix[::stride])
    return DecayReport(ladder=tuple(entries), monotone_tail_sup=profile,
                       start=start, spacing=spacing)


def sensitivity_demo(generator: Union[Callable[[float], float], DiscreteSystemSpec],
                     x0, perturbation: float, threshold: float,
                     horizon: int = FUNCTION_HORIZON) -> DivergenceReport:
    """Iterate two trajectories from nearby starts and watch their gap.

    ``generator`` is a scalar map or a discrete system spec.  The report
    gives the first index whose separation reaches the threshold and the
    least-squares slope of log separation up to that index; staying together
    for the whole horizon is a valid outcome.
    """
    if not 0.0 <= perturbation < threshold:
        raise DomainError("perturbation must be non-negative and below the threshold")
    if isinstance(generator, DiscreteSystemSpec):
        steps = min(int(horizon), len(generator.forcing) - 1)
        x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        shifted = x0 + perturbation / math.sqrt(x0.size)
        a = iterate(generator, x0, steps)
        b = iterate(generator, shifted, steps)
        gaps = row_norms(a.values - b.values)
    else:
        steps = int(horizon)
        gaps = np.empty(steps + 1)
        x, y = float(x0), float(x0) + perturbation
        for j in range(steps + 1):
            gaps[j] = abs(x - y)
            x, y = generator(x), generator(y)

    hits = np.nonzero(gaps >= threshold)[0]
    if hits.size == 0:
        return DivergenceReport(False, None, None, threshold, perturbation, steps)
    k = int(hits[0])
    slope = None
    mask = gaps[:k + 1] > 0.0
    if mask.sum() >= 2:
        t = np.nonzero(mask)[0]
        slope = float(np.polyfit(t, np.log(gaps[t]), 1)[0])
    return DivergenceReport(True, k, slope, threshold, perturbation, steps)
