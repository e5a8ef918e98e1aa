"""A fixed reference workload that measures how fast the host runs, while the program runs.

On a shared machine the speed of a core drifts by a third and more within
minutes, and over seconds as well: ten runs of the same code then spread
wider than any regression worth catching.  So while the worker times the
program, a ``Sampler`` interrupts it every ``INTERVAL_S`` (SIGALRM) and times
one ``unit()`` of fixed work in the same process on the same core.  The time
the samples take is kept out of every time the worker and the tracer read
(``Sampler.clock``), and each iteration is reported at a fixed host speed:

    scaled = measured * NOMINAL_S / (mean unit() time of the samples taken in it)

``unit()`` mixes the kinds of work the program does (interpreted arithmetic,
small numpy operations, float formatting) and calls no program code, so a
change to the program cannot move it.  ``NOMINAL_S`` is a constant, so scaled
times stay in seconds: those the program would take on a host where one unit
takes ``NOMINAL_S``.  The raw times are recorded beside the scaled ones.
"""

from __future__ import annotations

import io
import signal
import time

# Any fixed value would do; one unit() takes 7-12 ms on a 2-vCPU Xeon
# (2.1 GHz) VM, as its shared host gets busier.
NOMINAL_S = 0.01
# One sample every quarter second costs the program about 4% of its wall time.
INTERVAL_S = 0.25


def unit() -> float:
    """Fixed work, the same on every call; returns a checksum so nothing is skipped."""
    import numpy as np  # imported here: the worker times the program's own numpy import

    total = 0
    for i in range(40_000):
        total += i * i % 7
    grid = np.linspace(0.0, 1.0, 8)
    state = np.ones(8)
    acc = 0.0
    for _ in range(800):
        state = 0.5 * state + 0.1 * np.sin(grid)
        acc += float(state[3])
    out = io.StringIO()
    for i in range(2_000):
        out.write(f"{i},{i * 0.001:.17g},{(i * 0.37) % 1.0:.17g}\n")
    return total + acc + len(out.getvalue())


def per_unit(units: int) -> float:
    """Mean seconds of one unit() over ``units`` back-to-back calls, timed now."""
    start = time.perf_counter()
    for _ in range(units):
        unit()
    return (time.perf_counter() - start) / units


def scale(unit_s: float) -> float:
    """Factor that takes a time measured while unit() took ``unit_s`` to nominal speed."""
    return NOMINAL_S / unit_s


class Sampler:
    """Times one unit() every ``INTERVAL_S`` of wall time while it is entered.

    ``clock`` and ``cpu_clock`` are ``time.perf_counter`` and
    ``time.process_time`` less the time the samples took, so that whatever
    they time excludes the sampling.  Outside a ``with`` block no sample is
    taken and the clocks run as the plain ones do.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self.spent_cpu = 0.0
        self._busy = False
        self._previous = None

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def cpu_clock(self) -> float:
        return time.process_time() - self.spent_cpu

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a host stall let the next tick in before this one ended
            return
        self._busy = True
        w0, c0 = time.perf_counter(), time.process_time()
        unit()
        self.samples.append(time.perf_counter() - w0)
        self.spent += time.perf_counter() - w0
        self.spent_cpu += time.process_time() - c0
        self._busy = False

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
