"""Verified lockstep lanes (multiple shooting) for contracting recurrences.

Both integrators compute their orbits one unit at a time from the last
exact state, a unit being a row of a discrete orbit or a delay segment.  A
contraction draws a lane started from a wrong state onto the exact orbit,
and in floats the pull is exact: two lanes that hold the same state at the
same unit apply the same float map and agree from there on.  ``settle``
runs rounds of such lanes from the last exact unit ``S``.  A round of ``n``
lanes of ``w`` units with warm-up ``w`` starts every lane from unit ``S``;
lane ``c`` computes units ``S + c w + 1 .. S + c w + 2 w``, and all lanes
take those ``2 w`` steps together.  Lane 0 is exact.  Lane ``c`` is kept
when its state after ``w`` steps equals, bit for bit, the last state of
lane ``c - 1``, which is the same unit.  The first lane that fails this
check ends the round's exact units, and a round that rejects a lane doubles
``w``, so a slowly contracting system does not rerun every remaining lane
at a warm-up too short for it.  A lane as long as its warm-up keeps half
the units it computes, whatever ``w`` the system needs.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

WARMUP_CAP = 4096  # past this warm-up the caller steps the rest of its units


def first_warmup(matrix: np.ndarray) -> float:
    """Units that shrink a unit difference below 2^-64 under a system's linear step
    ``matrix``, rounded up to a power of two; inf when its spectral radius is not below 1."""
    if not np.isfinite(matrix).all():
        return math.inf
    rho = float(np.abs(np.linalg.eigvals(matrix)).max())
    if not rho < 1.0:
        return math.inf
    n = 1 if rho == 0.0 else math.ceil(64.0 * math.log(2.0) / -math.log(rho))
    return 1 << (n - 1).bit_length()


def settle(units: int, warm: float, run: Callable) -> tuple[int, float]:
    """Settle units ``1 .. units`` by rounds of lanes; returns (last exact unit, warm-up reached).

    ``run(known, w, n)`` takes ``n`` lanes of ``w`` units from the exact unit
    ``known``, writing each unit it computes to its place, and returns the
    lanes' states after ``w`` steps and after ``2 w`` steps, lanes first; or
    None to give the round up.  A unit that several lanes reach must end with
    the value of the lowest of them.  Stops when ``w`` passes ``WARMUP_CAP``,
    when fewer than two lanes fit in the units left, or at a round given up.
    """
    known = 0
    while warm <= WARMUP_CAP and (n := (units - known) // warm - 1) >= 2:
        states = run(known, warm, n)
        if states is None:
            break
        warmed, last = states
        same = (last[:-1].view(np.uint64) == warmed[1:].view(np.uint64)).reshape(n - 1, -1)
        kept = n if same.all() else int(same.all(axis=1).argmin()) + 1
        known += (kept + 1) * warm
        if kept < n:
            warm *= 2
    return known, warm
