"""Outside-in tracing of ``updyn``: wrap public functions, record spans, derive layer metrics.

The program's source is not touched.  :func:`installed` replaces every
binding through which the program calls a traced function: the defining
module's attribute, each module that imported the name (such as
``catalog.integrate_mos`` or ``cli.picard_apply``), and class attributes such
as ``Nonlinearity.__call__``.  Each wrapper records a span (name, start, end,
parent span, iteration) and the counts taken from its arguments and return
value.  Spans stay in memory until the run ends.

Two hot leaf calls are tallied instead of spanned, so that tracing does not
swamp what it measures: ``Nonlinearity.__call__`` (hundreds of thousands of
single-row calls per delay iteration) and ``ExponentialFilter.eval``.  Their
time stays in the calling span's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from perfbench import layers


def _integrate_steps(a, result):
    return {"steps": round((a["t_end"] - a["history"].t_end) / a["step"])}


def _iterate_steps(a, result):
    return {"steps": int(a["steps"])}


def _orbit_iterates(a, result):
    return {"iterates": int(a["burn_in"]) + int(a["length"])}


def _rungs(returns):
    return {"rungs_attempted": len(returns), "rungs_found": sum(r.found for r in returns)}


def _near_returns(a, result):
    cap = min(int(a["horizon"]), len(a["seq"]) - 1 - int(a["window"]))
    return {"horizon": cap, **_rungs(result)}


def _function_evidence(a, result):
    return _rungs(result.return_times)


def _csv_written(axis):
    def counts(a, result):
        return {"rows": len(a[axis]), "bytes": os.path.getsize(a["path"])}
    return counts


def _csv_read(a, result):
    return {"rows": int(result[2].shape[0])}


# module, attribute, span name, counts from (bound arguments, return value)
TRACED = (
    ("updyn.delay", "integrate_mos", "delay.integrate_mos", _integrate_steps),
    ("updyn.delay", "picard_apply", "delay.picard_apply", None),
    ("updyn.delay", "stability_constants", "delay.stability_constants", None),
    ("updyn.delay", "convergence_check", "delay.convergence_check", None),
    ("updyn.discrete", "iterate", "discrete.iterate", _iterate_steps),
    ("updyn.discrete", "bounded_orbit", "discrete.bounded_orbit", None),
    ("updyn.discrete", "spectral_norm", "discrete.spectral_norm", None),
    ("updyn.discrete", "orbit_sum_residual", "discrete.orbit_sum_residual", None),
    ("updyn.discrete", "gronwall_envelope", "discrete.gronwall_envelope", None),
    ("updyn.discrete", "convergence_check_discrete", "discrete.convergence_check_discrete",
     None),
    ("updyn.chaos", "logistic_orbit", "chaos.logistic_orbit", _orbit_iterates),
    ("updyn.chaos", "convolve_exponential", "chaos.convolve_exponential", None),
    ("updyn.chaos", "ExponentialFilter.from_orbit", "chaos.filter", None),
    ("updyn.chaos", "quadrature_oracle", "chaos.quadrature_oracle", None),
    ("updyn.constructs", "build_function_triple", "constructs.build_triple", None),
    ("updyn.constructs", "build_sequence_triple", "constructs.build_triple", None),
    ("updyn.constructs", "non_unpredictability_witness", "constructs.witness", None),
    ("updyn.detectors", "find_near_returns", "detectors.find_near_returns", _near_returns),
    ("updyn.detectors", "find_separations", "detectors.find_separations", None),
    ("updyn.detectors", "evidence_for_function", "detectors.evidence_for_function",
     _function_evidence),
    ("updyn.detectors", "verify_evidence", "detectors.verify_evidence", None),
    ("updyn.detectors", "decay_test", "detectors.decay_test", None),
    ("updyn.report", "write_function_csv", "report.write_function_csv", _csv_written("times")),
    ("updyn.report", "write_sequence_csv", "report.write_sequence_csv",
     _csv_written("indices")),
    ("updyn.report", "read_series_csv", "report.read_series_csv", _csv_read),
    ("updyn.report", "write_json_report", "report.write_json_report", None),
    ("updyn.catalog", "run_function_demo", "catalog.run_function_demo", None),
    ("updyn.catalog", "run_sequence_demo", "catalog.run_sequence_demo", None),
    ("updyn.catalog", "run_delay_demo", "catalog.run_delay_demo", None),
    ("updyn.catalog", "run_discrete_demo", "catalog.run_discrete_demo", None),
    ("updyn.cli", "reproduce", "cli", None),
    ("updyn.cli", "run_config", "cli", None),
    ("updyn.cli", "detect", "cli", None),
    ("updyn.cli", "validate_config", "cli.validate_config", None),
)


def _rows(x) -> int:
    shape = getattr(x, "shape", ())  # the workloads pass arrays; a plain list counts as one row
    return math.prod(shape[:-1]) if len(shape) > 1 else 1


def _nonlinearity_rows(nl, x):
    return (("nonlinearity.calls", 1), ("nonlinearity.rows", _rows(x)))


def _filter_points(filt, t):
    return (("chaos.filter_eval.points", math.prod(getattr(t, "shape", ()))),)


# module, attribute, layer, tallies from the call's arguments
TALLIED = (
    ("updyn.nonlinearity", "Nonlinearity.__call__", "nonlinearity", _nonlinearity_rows),
    ("updyn.chaos", "ExponentialFilter.eval", "chaos", _filter_points),
)

# ratio metrics: numerator keys, denominator keys, summed over all traced iterations
RATIOS = {
    "nonlinearity.rows_per_call": (("nonlinearity.rows",), ("nonlinearity.calls",)),
    "delay.integrate_mos.steps_per_s": (("delay.integrate_mos.steps",),
                                        ("delay.integrate_mos.self_s",)),
    "detectors.rungs_found_frac": (
        ("detectors.find_near_returns.rungs_found",
         "detectors.evidence_for_function.rungs_found"),
        ("detectors.find_near_returns.rungs_attempted",
         "detectors.evidence_for_function.rungs_attempted")),
}


class Span:
    """One call at a layer boundary; ``parent`` is the index of the enclosing span."""

    __slots__ = ("name", "parent", "iteration", "start", "end", "counts", "error")

    def __init__(self, name, parent, iteration, start, end=None):
        self.name = name
        self.parent = parent
        self.iteration = iteration
        self.start = start
        self.end = end
        self.counts = {}
        self.error = False


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for k, span in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for a, b in sorted(children[k]):
            a, b = max(a, span.start), min(b, span.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append(span.end - span.start - covered)
    return out


class Tracer:
    """Spans and tallies of one traced run, kept in memory until written out.

    Span times are read from ``clock``; the worker passes one that leaves out
    the time its host-speed samples take (see ``reference.Sampler``).
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.origin = clock()
        self.spans: list[Span] = []
        self.tallies: dict = {}
        self._stack: list[int] = []
        self.iteration = None
        self._tally = self.tallies.setdefault(None, defaultdict(int))

    def begin_iteration(self, iteration) -> None:
        self.iteration = iteration
        self._tally = self.tallies.setdefault(iteration, defaultdict(int))

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, parent, self.iteration, self.clock())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        except BaseException:
            span.error = True
            raise
        finally:
            self.close(span)

    def wrap(self, fn, name: str, counts=None):
        """A stand-in for ``fn`` that records one span per call."""
        signature = inspect.signature(fn) if counts else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if counts:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts.update(counts(bound.arguments, result))
            return result
        return traced

    def tally(self, fn, layer: str, counts):
        """A stand-in for ``fn`` that only adds its counts to the current iteration."""
        errors = f"{layer}.errors"

        @functools.wraps(fn)
        def tallied(*args, **kwargs):
            tally = self._tally
            for key, n in counts(*args, **kwargs):
                tally[key] += n
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tally[errors] += 1
                raise
        return tallied

    def write(self, path) -> None:
        """Write every span and tally as JSON lines, times relative to the tracer's start."""
        own = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            for k, (span, self_s) in enumerate(zip(self.spans, own)):
                fh.write(json.dumps({
                    "id": k, "name": span.name, "parent": span.parent,
                    "iteration": span.iteration, "start": span.start - self.origin,
                    "end": span.end - self.origin, "self_s": self_s,
                    "counts": span.counts, "error": span.error}) + "\n")
            for iteration, tally in self.tallies.items():
                if tally:
                    fh.write(json.dumps({"iteration": iteration, "tally": dict(tally)}) + "\n")


def _updyn_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "updyn" or name.startswith("updyn."))]


def _patch(module: str, attribute: str, make) -> list:
    """Replace every binding of one function; return (owner, name, original) triples."""
    mod = importlib.import_module(module)
    if "." in attribute:
        cls_name, name = attribute.split(".")
        cls = getattr(mod, cls_name)
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            setattr(cls, name, classmethod(make(raw.__func__)))
        else:
            setattr(cls, name, make(raw))
        return [(cls, name, raw)]
    original = getattr(mod, attribute)
    wrapper = make(original)
    patched = []
    for owner in _updyn_modules():
        for name, value in list(vars(owner).items()):
            if value is original:
                setattr(owner, name, wrapper)
                patched.append((owner, name, original))
    return patched


@contextmanager
def installed(tracer: Tracer):
    """Trace the program through ``tracer`` inside the block; restore it afterwards."""
    patched = []
    try:
        for module, attribute, name, counts in TRACED:
            patched += _patch(module, attribute,
                              lambda fn, n=name, c=counts: tracer.wrap(fn, n, c))
        for module, attribute, layer, counts in TALLIED:
            patched += _patch(module, attribute,
                              lambda fn, n=layer, c=counts: tracer.tally(fn, n, c))
        yield tracer
    finally:
        for owner, name, original in reversed(patched):
            setattr(owner, name, original)


def iteration_values(tracer: Tracer) -> dict:
    """Per-iteration totals: ``<span>.self_s``, ``<span>.calls``, span counts, tallies, errors."""
    per = defaultdict(lambda: defaultdict(float))
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        values = per[span.iteration]
        values[f"{span.name}.self_s"] += own
        values[f"{span.name}.calls"] += 1
        for key, n in span.counts.items():
            values[f"{span.name}.{key}"] += n
        if span.error:
            values[f"{layers.layer_of(span.name)}.errors"] += 1
    for iteration, tally in tracer.tallies.items():
        for key, n in tally.items():
            per[iteration][key] += n
    per.pop(None, None)
    return per


def layer_metrics(tracer: Tracer, names) -> dict:
    """Median over traced iterations of each named metric; ratios from summed totals."""
    per = iteration_values(tracer)
    iterations = sorted(per)
    if not iterations:
        raise ValueError("no traced iteration recorded a span")

    def total(keys):
        return sum(per[i].get(key, 0.0) for i in iterations for key in keys)

    out = {}
    for name in names:
        if name in RATIOS:
            num, den = RATIOS[name]
            out[name] = total(num) / total(den) if total(den) else 0.0
        else:
            out[name] = statistics.median(per[i].get(name, 0.0) for i in iterations)
    return out
