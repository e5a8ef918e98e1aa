"""Metric catalogue: the end-to-end metrics and the per-layer metrics with their mapping.

BENCHMARK.json lists the same names, units and directions; a test keeps the
two in step.  For each per-layer metric the table names the end-to-end
metrics it should move and the workloads it should move them on, fixed
before any optimisation is measured.  On every other workload the
prediction is no change.
"""

from __future__ import annotations

ALL = ("delay", "construct", "discrete")
WALL = ("wall_s",)
WALL_CPU = ("wall_s", "cpu_s")

# name, unit, better, bound (share of the parent's median a change may worsen it by).
# Times are scaled by reference work timed while they run (reference.py), which
# takes out most of the host's drift; what is left still moves a run's median by
# several percent, and more on a busy host, so the times keep bounds near the widest
# allowed; set-up, which later changes must not grow unseen, gets the widest.
END_TO_END = (
    ("wall_s", "s", "lower", 0.24),
    ("wall_s_tail", "s", "lower", 0.24),
    ("cpu_s", "s", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
)

# name, unit, better, end-to-end metrics it should move, workloads it moves them on
PER_LAYER = (
    ("delay.integrate_mos.self_s", "s", "lower", WALL_CPU, ("delay",)),
    ("delay.integrate_mos.calls", "count", "lower", WALL_CPU, ("delay",)),
    ("delay.integrate_mos.steps", "count", "lower", WALL_CPU, ("delay",)),
    ("delay.integrate_mos.steps_per_s", "1/s", "higher", WALL_CPU, ("delay",)),
    ("delay.picard_apply.self_s", "s", "lower", WALL, ("delay",)),
    ("delay.picard_apply.calls", "count", "lower", WALL, ("delay",)),
    ("delay.stability_constants.self_s", "s", "lower", WALL, ("delay",)),
    ("delay.convergence_check.self_s", "s", "lower", WALL, ("delay",)),
    ("nonlinearity.calls", "count", "lower", WALL, ("delay", "discrete")),
    ("nonlinearity.rows", "count", "lower", WALL, ("delay", "discrete")),
    ("nonlinearity.rows_per_call", "rows/call", "higher", WALL, ("delay", "discrete")),
    ("discrete.iterate.self_s", "s", "lower", WALL, ("discrete",)),
    ("discrete.iterate.steps", "count", "lower", WALL, ("discrete",)),
    ("discrete.bounded_orbit.self_s", "s", "lower", WALL, ("discrete",)),
    ("discrete.spectral_norm.self_s", "s", "lower", WALL, ("discrete",)),
    ("discrete.spectral_norm.calls", "count", "lower", WALL, ("discrete",)),
    ("discrete.orbit_sum_residual.self_s", "s", "lower", WALL, ("discrete",)),
    ("discrete.gronwall_envelope.self_s", "s", "lower", WALL, ("discrete",)),
    ("discrete.convergence_check_discrete.self_s", "s", "lower", WALL, ("discrete",)),
    ("chaos.logistic_orbit.self_s", "s", "lower", WALL, ("construct",)),
    ("chaos.logistic_orbit.iterates", "count", "lower", WALL, ("construct",)),
    ("chaos.convolve_exponential.self_s", "s", "lower", WALL, ("construct",)),
    ("chaos.filter.self_s", "s", "lower", WALL, ("construct", "delay")),
    ("chaos.filter_eval.points", "count", "lower", WALL, ("construct", "delay")),
    ("chaos.quadrature_oracle.self_s", "s", "lower", WALL, ("construct",)),
    ("chaos.quadrature_oracle.calls", "count", "lower", WALL, ("construct",)),
    ("constructs.build_triple.self_s", "s", "lower", WALL, ("construct", "discrete")),
    ("constructs.witness.self_s", "s", "lower", WALL, ("construct",)),
    ("detectors.find_near_returns.self_s", "s", "lower", WALL, ("construct", "discrete")),
    ("detectors.find_near_returns.horizon", "count", "lower", WALL, ("construct", "discrete")),
    ("detectors.find_separations.self_s", "s", "lower", WALL, ("construct", "discrete")),
    ("detectors.evidence_for_function.self_s", "s", "lower", WALL, ("construct",)),
    ("detectors.verify_evidence.self_s", "s", "lower", WALL, ("construct", "discrete")),
    ("detectors.decay_test.self_s", "s", "lower", WALL, ("construct",)),
    # the scan's useful-outcome ratio: a pure speed change must not move it
    ("detectors.rungs_found_frac", "ratio", "higher", (), ("construct", "discrete")),
    ("report.write_function_csv.self_s", "s", "lower", WALL, ("delay", "construct")),
    ("report.write_function_csv.rows", "count", "lower", WALL, ("delay", "construct")),
    ("report.write_function_csv.bytes", "B", "lower", WALL, ("delay", "construct")),
    ("report.write_sequence_csv.self_s", "s", "lower", WALL, ("discrete", "construct")),
    ("report.write_sequence_csv.rows", "count", "lower", WALL, ("discrete", "construct")),
    ("report.write_sequence_csv.bytes", "B", "lower", WALL, ("discrete", "construct")),
    ("report.read_series_csv.self_s", "s", "lower", WALL, ("discrete",)),
    ("report.read_series_csv.rows", "count", "lower", WALL, ("discrete",)),
    ("report.write_json_report.self_s", "s", "lower", WALL, ALL),
    ("catalog.run_function_demo.self_s", "s", "lower", WALL, ("construct",)),
    ("catalog.run_sequence_demo.self_s", "s", "lower", WALL, ("construct",)),
    ("catalog.run_delay_demo.self_s", "s", "lower", WALL, ("delay",)),
    ("catalog.run_discrete_demo.self_s", "s", "lower", WALL, ("discrete",)),
    ("cli.self_s", "s", "lower", WALL, ALL),
    ("cli.validate_config.self_s", "s", "lower", WALL, ("discrete",)),
    # spans that ended in an exception; each layer listed on the workloads that use it
    ("delay.errors", "count", "lower", (), ("delay",)),
    ("nonlinearity.errors", "count", "lower", (), ("delay", "discrete")),
    ("discrete.errors", "count", "lower", (), ("discrete",)),
    ("chaos.errors", "count", "lower", (), ALL),
    ("constructs.errors", "count", "lower", (), ("construct", "discrete")),
    ("detectors.errors", "count", "lower", (), ("construct", "discrete")),
    ("report.errors", "count", "lower", (), ALL),
    ("catalog.errors", "count", "lower", (), ALL),
    ("cli.errors", "count", "lower", (), ALL),
    # traced wall_s minus untraced wall_s of the same run
    ("trace.overhead_s", "s", "lower", (), ALL),
)

# The program is single-threaded and nothing in it queues, so no layer has a wait time.
WAIT_TIME = "not applicable: single-threaded program with no queues or locks"


def layer_of(metric: str) -> str:
    return metric.split(".", 1)[0]
