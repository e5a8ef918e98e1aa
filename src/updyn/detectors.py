"""Finite-horizon evidence for recurrence, separation, decay and sensitivity.

Nothing here proves a definitional property: the definitions quantify over
infinite index sets, while these scans cover a recorded window and say so.
Every report carries the scanned horizon, and every reported event can be
re-verified independently from the raw data.

Sequences and grid functions take one test: near returns, then a separation
per return, which for a function must hold on a whole interval of nodes.
The scan defaults below are the demos' and the command line's.

Every scan decides "gap < rung" on the row norms of the rows themselves.  A one-column
key with a ``scale`` whose first entry is 1 stands for the rows key * scale (6.2's psi),
rebuilt as ``constructs.sequence_psi`` builds them, and only where a scan reads them.
The near-return scan first drops shifts on the key, the rows' first column: a row gap
below ``rung`` has |d0| < ``_loose(rung)``, d0 the key's computed difference, since the
norm's partial sums of non-negative squares never fall, so the norm is at least
fl(sqrt(fl(d0^2))), within a relative 2^-51 of |d0| unless d0^2 underflows (|d0| < 2^-511).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .chaos import ROW_CHUNK, Series, row_norms, settling_positions
from .errors import ArgumentError, DomainError, ResolutionError, WindowExhaustedError

DEFAULT_LADDER = (0.2, 0.1, 0.05, 0.02)
SEQUENCE_HORIZON = 10 ** 6
FUNCTION_HORIZON = 10 ** 4
SCAN_WINDOW = 20      # indices a sequence's near returns compare
SCAN_EPSILON0 = 0.3   # the separation the sequence scans and detect ask for
SCAN_DELTA = 0.2      # half-width of a function's separation interval, in time units
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


def _loose(rung: float) -> float:
    """A bound the first column's gap stays under whenever the row gap is below ``rung``."""
    return rung * (1.0 + 2.0 ** -20) + 2.0 ** -500


class _Rows:
    """The rows a scan reads: ``seq``'s own, or for a one-column key with a ``scale`` whose
    first entry is 1, the rows key * scale, rebuilt only where read.  ``key`` is the
    rows' first column."""

    def __init__(self, seq: Series, scale: Sequence[float] | None = None):
        self.values, self.key, self.scale = seq.values, seq.values[:, 0], scale
        if scale is not None:
            s = self.scale = np.asarray(scale, dtype=float)
            if seq.dim != 1 or s.ndim != 1 or not s.size or s[0] != 1.0:
                raise DomainError(f"a scaled key must be one column and its scale must start "
                                  f"at 1, got {seq.dim} columns and scale {s.tolist()!r}")

    def __getitem__(self, at) -> np.ndarray:
        rows = self.values[at]
        return rows if self.scale is None else rows * self.scale

    def gaps(self, at, origin) -> np.ndarray:
        """Row norms of the rows ``at`` minus the row, or as many rows, ``origin``."""
        a, b = self[at], self[origin]
        return row_norms(a, b) if b.ndim == 1 else row_norms(a - b)


def _first_survivor(rows: _Rows, anchor: int, window: int, candidates: np.ndarray,
                    rung: float) -> int | None:
    """Smallest candidate shift z whose row gap from row anchor+o at row anchor+z+o is
    below ``rung`` at every offset o in 0..window.

    Candidates are taken in increasing chunks.  A chunk passes the key's ``_loose`` test at
    offsets 1..window (offset 0 passed it in the anchor gap), then the row gaps at offsets
    0..window.  Each test runs one offset at a time while the chunk's survivors times the
    offsets still to test exceed ``_RETURN_CHUNK``, then at all of those offsets in one
    (survivors x offsets) pass of at most that many rows.  That pass spares numpy's per-call
    cost on a chunk's last few survivors: 6.1's scans took 0.80-0.89 and 6.2's 0.62-0.70 of
    the CPU time of one offset at a time (median ratios on four seeds).  A 32,768-row pass
    made 6.2's slower (1.34), and switching at 16 survivors left 6.1's as it was (0.99).
    """
    key, limit = rows.key, _loose(rung)

    def passes(at, base, on_key: bool) -> np.ndarray:
        """Whether rows ``at`` pass against rows ``base``: on the key's bound, or the rung."""
        return np.abs(key[at] - key[base]) < limit if on_key else rows.gaps(at, base) < rung

    lo, size = 0, _RETURN_CHUNK
    while lo < candidates.size:
        alive = candidates[lo:lo + size] + anchor
        for on_key, first in ((True, 1), (False, 0)):
            for o in range(first, window + 1):
                if not alive.size:
                    break
                if alive.size * (window + 1 - o) > _RETURN_CHUNK:
                    alive = alive[passes(alive + o, anchor + o, on_key)]
                    continue
                offsets = np.arange(o, window + 1)
                ok = passes((alive[:, None] + offsets).ravel(),
                            np.tile(anchor + offsets, alive.size), on_key)
                alive = alive[ok.reshape(alive.size, -1).all(axis=1)]
                break
        if alive.size:
            return int(alive[0]) - anchor
        lo += size
        size = min(2 * size, _RETURN_CHUNK_MAX)
    return None


def _scan_near_returns(rows: _Rows, anchor: int, window: int, cap: int, rungs: list[float],
                       first: int = 1) -> list[NearReturn]:
    """Per rung, the smallest shift in [first, cap], above the previous rung's hit,
    under which the span of rows anchor..anchor+window returns below the rung.

    One forward pass takes the key's gap from the anchor in blocks of ``ROW_CHUNK``
    shifts, each serving the rungs in turn.  A rung with no hit leaves none to the
    smaller rungs.
    """
    key, hits = rows.key, []
    for lo in range(first, cap + 1, ROW_CHUNK):
        block = key[anchor + lo:anchor + min(lo + ROW_CHUNK, cap + 1)] - key[anchor]
        np.abs(block, out=block)
        while len(hits) < len(rungs):
            rung, start = rungs[len(hits)], max(hits[-1] + 1 if hits else first, lo)
            candidates = np.nonzero(block[start - lo:] < _loose(rung))[0] + start
            if (hit := _first_survivor(rows, anchor, window, candidates, rung)) is None:
                break
            hits.append(hit)
        if len(hits) == len(rungs):
            break
    hits += [None] * (len(rungs) - len(hits))
    span = slice(anchor, anchor + window + 1)
    return [NearReturn(target, hit, None if hit is None else float(rows.gaps(
                slice(anchor + hit, anchor + hit + window + 1), span).max()), window)
            for target, hit in zip(rungs, hits)]


def find_near_returns(seq: Series, window: int, ladder: Sequence[float],
                      horizon: int = SEQUENCE_HORIZON, scale=None) -> list[NearReturn]:
    """Smallest strictly increasing shifts meeting each closeness rung.

    A shift z qualifies for rung delta when the whole comparison window
    satisfies max_{0<=i<=window} |seq_{i+z} - seq_i| < delta.  Rungs not met
    inside the horizon are reported with ``shift=None``.  ``ArgumentError``
    names a ``window`` that leaves no shift, or a ``horizon`` that is not one.
    With a ``scale``, ``seq`` is a key for the rows key * scale (see the module).
    """
    rungs = _validate_ladder(ladder)
    n = len(seq)
    if not 0 <= window < n - 1:
        raise ArgumentError(("window", "seq"), f"must lie in [0, {n - 1}) to leave a shift "
                                               f"in {n} rows, got {window!r}")
    if not (float(horizon).is_integer() and horizon >= 1):
        raise ArgumentError("horizon", f"must be a whole number of shifts, got {horizon!r}")
    cap = min(int(horizon), n - 1 - window)
    return _scan_near_returns(_Rows(seq, scale), 0, window, cap, rungs)


def _separations(rows: _Rows, shifts: Sequence[int], epsilon0: float, horizon: int,
                 half: int = 0) -> list[SeparationEvent]:
    """Per shift z, the first offset u whose gap between rows z+o and o is not below
    epsilon0 at any offset o within ``half`` of it, each o at most ``horizon`` and
    inside the rows.

    Chunks of offsets start at ``_SEPARATION_CHUNK`` and double up to ``ROW_CHUNK``;
    each takes the last 2*half offsets of the one before again, so no run is cut in two.
    """
    run, events = 2 * half + 1, []
    for z in shifts:
        cap = min(horizon, len(rows.key) - z - 1)
        lo, size = 0, _SEPARATION_CHUNK
        while lo <= cap:
            start, hi = max(lo - 2 * half, 0), min(lo + size, cap + 1)
            gaps = rows.gaps(slice(z + start, z + hi), slice(start, hi))
            # short[k] counts the gaps below epsilon0 among the first k; a clear run adds none
            short = np.concatenate(([0], np.cumsum(gaps < epsilon0)))
            clear = np.nonzero(short[run:] == short[:-run])[0]
            if clear.size:
                o = int(clear[0]) + half  # the run's centre, from the chunk's start
                events.append(SeparationEvent(z, start + o, float(gaps[o])))
                break
            lo, size = hi, min(2 * size, ROW_CHUNK)
    return events


def find_separations(seq: Series, shifts: Sequence[int], epsilon0: float,
                     horizon: int = SEQUENCE_HORIZON, scale=None) -> list[SeparationEvent]:
    """For each shift, the smallest offset with |seq_{shift+o} - seq_o| >= epsilon0;
    with a ``scale``, of the rows key * scale that the one-column ``seq`` stands for."""
    if not epsilon0 > 0.0:
        raise DomainError("epsilon0 must be positive")
    shifts = [int(z) for z in shifts]
    outside = [z for z in shifts if not 1 <= z < len(seq)]
    if outside:
        raise DomainError(f"shift {outside[0]} outside the recorded window")
    return _separations(_Rows(seq, scale), shifts, epsilon0, int(horizon))


def separation_at(seq: Series, shift: int, offset: int) -> float:
    """Re-evaluate one separation directly from the data."""
    return float(np.linalg.norm(seq.values[offset + shift] - seq.values[offset]))


def _evidence(returns, seps, epsilon0: float, scanned: int, **fields) -> UnpredictabilityEvidence:
    """The record of one scan: its rungs, its separations and the least of their gaps."""
    return UnpredictabilityEvidence(
        return_times=tuple(returns),
        separation_times=tuple(seps),
        epsilon0_estimate=float(min((s.separation for s in seps), default=0.0)),
        scanned_horizon=int(scanned),
        epsilon0_requested=float(epsilon0),
        **fields)


def collect_evidence(seq: Series, window: int = SCAN_WINDOW, epsilon0: float = SCAN_EPSILON0,
                     horizon: int = SEQUENCE_HORIZON, scale=None) -> UnpredictabilityEvidence:
    """Run both scans, on the rungs of ``DEFAULT_LADDER``, and assemble the evidence record
    for a sequence, or for the rows key * scale of a one-column key ``seq``."""
    returns = find_near_returns(seq, window, DEFAULT_LADDER, horizon, scale)
    seps = find_separations(seq, [r.shift for r in returns if r.found], epsilon0, horizon, scale)
    return _evidence(returns, seps, epsilon0, min(int(horizon), len(seq) - 1 - window),
                     kind="sequence", base_index=seq.t_start)


def evidence_for_function(phi: Series, window: Sequence[float],
                          ladder: Sequence[float] = DEFAULT_LADDER, epsilon0: float = 0.2,
                          delta: float = SCAN_DELTA, horizon: float = FUNCTION_HORIZON,
                          min_shift: float = 0.0) -> UnpredictabilityEvidence:
    """Grid analogue of the sequence scans with shifts on grid multiples.

    Near returns compare the compact span ``window`` (absolute times) under
    shifted copies; a separation event requires the bound to hold at every
    grid node of [u - delta, u + delta], at any offset the grid holds.  The
    grid must resolve delta with at least four nodes per half-width.
    ``min_shift`` excludes the trivially small shifts a continuous signal
    always admits.  ``ArgumentError`` names the argument that breaks one of
    these rules, or, when [min_shift, horizon] holds no shift, each argument
    that shortens that range.
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

    rows = _Rows(phi)
    returns = _scan_near_returns(rows, j0, j1 - j0, cap, rungs, first)

    half = int(round(delta / phi.step))
    seps = [replace(e, center_time=float(phi.t_start + e.offset * phi.step)) for e in
            _separations(rows, [r.shift for r in returns if r.found], epsilon0, n, half)]
    return _evidence(returns, seps, epsilon0, cap, kind="function", base_index=0, anchor=j0,
                     time_step=phi.step, interval_halfwidth=half * phi.step)


def verify_evidence(data: Series, evidence: UnpredictabilityEvidence, scale=None) -> bool:
    """Plain re-check of every recorded event straight from the raw data; with a ``scale``,
    each row read is rebuilt as key[i] * scale, and no bound on the key is used.  A return's
    window, the separations and their intervals are each rebuilt in one batch of rows.  Of
    the scans' code it shares only ``row_norms``, numpy's per-row norm bit for bit."""
    values, factor = data.values, 1.0 if scale is None else np.asarray(scale, dtype=float)

    def gaps(shift, offset) -> np.ndarray:
        """Norms of rows ``offset + shift`` less rows ``offset``, for index arrays."""
        return row_norms(values[offset + shift] * factor - values[offset] * factor)

    for ret in evidence.return_times:
        if ret.found:
            worst = float(gaps(ret.shift, np.arange(ret.window + 1) + evidence.anchor).max())
            if not worst < ret.target or abs(worst - ret.achieved) > 1e-12:
                return False
    seps = evidence.separation_times
    shift = np.array([s.shift for s in seps], dtype=np.intp)
    offset = np.array([s.offset for s in seps], dtype=np.intp)
    found = gaps(shift, offset)
    if np.any((abs(found - [s.separation for s in seps]) > 1e-12)
              | (found < evidence.epsilon0_estimate - 1e-12)):
        return False
    if evidence.kind == "function" and evidence.interval_halfwidth is not None and seps:
        half = int(round(evidence.interval_halfwidth / evidence.time_step))
        nodes = offset[:, None] + np.arange(-half, half + 1)
        if nodes.min() < 0 or (nodes + shift[:, None]).max() >= len(values):
            return False
        if np.any(gaps(shift[:, None], nodes) < evidence.epsilon0_requested - 1e-12):
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


def sensitivity_demo(generator: Callable[[float], float], x0: float, perturbation: float,
                     threshold: float, horizon: int = FUNCTION_HORIZON) -> DivergenceReport:
    """Iterate a scalar map from two nearby starts and watch their gap.

    The report gives the first index whose separation reaches the threshold
    and the least-squares slope of log separation up to that index; staying
    together for the whole horizon is a valid outcome.
    """
    if not 0.0 <= perturbation < threshold:
        raise DomainError("perturbation must be non-negative and below the threshold")
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
