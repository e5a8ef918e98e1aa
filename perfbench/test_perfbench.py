"""Tests of the benchmark itself: span arithmetic, its catalogue, and layer coverage."""

import json
import sys
import time
from pathlib import Path

import pytest

from perfbench import layers, reference, run, spans, worker, workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _bindings():
    """Every attribute of every updyn module and of the classes whose methods are traced."""
    from updyn.chaos import ExponentialFilter
    from updyn.nonlinearity import Nonlinearity
    found = {(name, key): id(value) for name, module in list(sys.modules.items())
             if name.split(".")[0] == "updyn" and module is not None
             for key, value in vars(module).items()}
    for cls in (ExponentialFilter, Nonlinearity):
        found.update({(cls.__name__, key): id(value) for key, value in vars(cls).items()})
    return found


def _spans(rows):
    return [spans.Span(name, parent, 0, start, end) for name, start, end, parent in rows]


def test_self_time_subtracts_nested_children():
    # root [0, 10] holds a [1, 4] and b [5, 6]; a holds c [2, 3]
    got = spans.self_times(_spans([("root", 0.0, 10.0, None), ("a", 1.0, 4.0, 0),
                                   ("c", 2.0, 3.0, 1), ("b", 5.0, 6.0, 0)]))
    assert got == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_covered_time_once_and_inside_the_parent():
    # overlapping children cover [1, 5]; a child sticking out past the parent is clipped
    got = spans.self_times(_spans([("root", 0.0, 10.0, None), ("a", 1.0, 4.0, 0),
                                   ("b", 3.0, 5.0, 0), ("c", 9.0, 12.0, 0)]))
    assert got[0] == pytest.approx(10.0 - 4.0 - 1.0)


def test_iteration_values_sum_per_name_and_count_errors():
    tracer = spans.Tracer()
    tracer.spans = _spans([("cli", 0.0, 4.0, None), ("report.write_json_report", 1.0, 2.0, 0),
                           ("report.write_json_report", 2.5, 3.0, 0)])
    tracer.spans[2].error = True
    tracer.spans[1].counts["rows"] = 7
    values = spans.iteration_values(tracer)[0]
    assert values["cli.self_s"] == pytest.approx(2.5)
    assert values["report.write_json_report.self_s"] == pytest.approx(1.5)
    assert values["report.write_json_report.calls"] == 2
    assert values["report.write_json_report.rows"] == 7
    assert values["report.errors"] == 1


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, info = run.tail([float(k) for k in range(25, 0, -1)])
    assert value == 15.0 and info == {"percentile": 60.0, "samples": 25, "beyond": 10}
    value, info = run.tail([3.0, 1.0, 2.0])
    assert value == 1.0 and info["beyond"] == 2


def test_times_are_scaled_by_the_reference_units_timed_while_they_ran():
    nominal = reference.NOMINAL_S
    samples = [{"wall_s": 3.0, "unit_s": nominal}, {"wall_s": 3.0, "unit_s": 1.5 * nominal},
               {"wall_s": 2.5, "unit_s": None}]
    assert run.scaled(samples, "wall_s") == pytest.approx([3.0, 2.0, 2.0])


def test_the_sampler_times_reference_units_and_keeps_them_off_its_clock():
    sampler = reference.Sampler()
    with sampler:
        start, plain = sampler.clock(), time.perf_counter()
        while time.perf_counter() - plain < 3.5 * reference.INTERVAL_S:
            pass
        elapsed, plain = sampler.clock() - start, time.perf_counter() - plain
    assert len(sampler.samples) >= 2
    assert elapsed == pytest.approx(plain - sum(sampler.samples), abs=0.01)


def test_logistic_seeds_are_reproducible_and_inside_the_unit_interval():
    seeds = [s for w in workloads.WHY for n in range(20) for s in workloads.logistic_seeds(w, n)]
    again = [s for w in workloads.WHY for n in range(20) for s in workloads.logistic_seeds(w, n)]
    assert seeds == again
    assert all(0.0 < s < 1.0 for s in seeds)
    assert len(set(seeds)) > 0.99 * len(seeds)


def test_benchmark_json_matches_the_catalogue():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert doc["workloads"] == [{"name": k, "why": v} for k, v in workloads.WHY.items()]
    assert doc["end_to_end"] == [{"name": n, "unit": u, "better": b, "bound": bound}
                                 for n, u, b, bound in layers.END_TO_END]
    assert doc["per_layer"] == [{"name": n, "unit": u, "better": b}
                                for n, u, b, *_ in layers.PER_LAYER]
    names = [row[0] for row in layers.PER_LAYER]
    ratios = set(spans.RATIOS)
    assert ratios <= set(names) and len(names) == len(set(names))


@pytest.mark.parametrize("workload", sorted(workloads.WHY))
def test_every_layer_metric_records_on_its_workloads(workload, tmp_path, monkeypatch):
    cli, _ = worker.import_cli(str(SRC))
    monkeypatch.chdir(tmp_path)
    s = workloads.logistic_seeds(workload, 0)[0]
    workloads.prepare(workload, s, tmp_path)
    before = _bindings()
    tracer = spans.Tracer()
    with spans.installed(tracer):
        it = worker.run_iteration(cli.main, workloads.invocations(workload, s), tracer=tracer)
    assert [r["problems"] for r in it["invocations"]] == [[] for _ in it["invocations"]]

    names = [row[0] for row in layers.PER_LAYER if row[0] != "trace.overhead_s"]
    values = spans.layer_metrics(tracer, names)
    active = {layers.layer_of(span.name) for span in tracer.spans}
    active |= {layers.layer_of(key) for key in tracer.tallies[0]}
    silent = []
    for name, _unit, _better, _moves, on in layers.PER_LAYER:
        if workload not in on or name == "trace.overhead_s":
            continue
        recorded = layers.layer_of(name) in active if name.endswith(".errors") \
            else values[name] > 0
        if not recorded:
            silent.append(name)
    assert silent == []

    if workload == "construct":
        assert not [span.name for span in tracer.spans
                    if span.name.startswith("delay.") or span.name == "discrete.iterate"]
    assert _bindings() == before
