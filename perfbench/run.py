#!/usr/bin/env python3
"""Benchmark of the updyn command line: run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload {delay,construct,discrete} --seed N \\
        --seconds T --trace {0,1}

Run it from the root of a checkout; it uses the program under ``src/``.  It
times ``import updyn.cli`` in several fresh processes and starts one worker
process that runs the workload's iterations (see ``worker.py``).  No
more than two processes exist at a time, and every child gets the BLAS and
OpenMP thread caps in ``THREAD_CAPS``.

``--trace 0`` reports the end-to-end metrics and ``--trace 1`` the per-layer
metrics from an outside-in trace (see ``spans.py``).  Every end-to-end time
(``wall_s``, ``cpu_s``, ``setup_s``, ``wall_s_tail``) and ``trace.overhead_s``
is scaled to a fixed host speed by the reference work timed while it ran, or
for set-up right after it (see ``reference.py``); the raw times are kept in
the record.  ``wall_s``, ``cpu_s`` and ``setup_s`` are medians over the run.
Per-layer self times are not scaled.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record goes
to ``perfbench/results/<workload>-seed<N>-trace<0|1>.json``: environment,
seeds, argv, the sha256 of every output file, failures and raw samples.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from perfbench import layers, reference, workloads  # noqa: E402

# Fresh import-only processes, half before the worker and half after it, so that
# set-up samples span the run; the worker's own import is one more sample.
IMPORT_PROBES = 4
TIME_LIMIT_S = 170.0
THREAD_CAPS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                      "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                                      "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


def tail(samples):
    """Highest nearest-rank percentile with at least ten samples beyond it.

    With fewer than eleven samples no percentile has ten beyond it; the lowest
    rank is reported then, and ``beyond`` says how many samples lie past it.
    """
    xs = sorted(samples)
    rank = max(1, len(xs) - 10)
    return xs[rank - 1], {"percentile": 100.0 * rank / len(xs), "samples": len(xs),
                          "beyond": len(xs) - rank}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None
    return {"python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "jsonschema": version("jsonschema"),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
            "platform": platform.platform(), "thread_caps": THREAD_CAPS,
            "host_speed_reference": {"nominal_s": reference.NOMINAL_S,
                                     "interval_s": reference.INTERVAL_S}}


class Children:
    """Starts the child processes one at a time, all inside one deadline."""

    def __init__(self, limit_s: float):
        self.deadline = time.monotonic() + limit_s
        self.env = {**os.environ, **THREAD_CAPS}

    def run(self, *args: str) -> str:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("benchmark time limit reached")
        # on timeout, subprocess.run kills the child and waits for it
        done = subprocess.run([sys.executable, "-m", "perfbench.worker", "--src", str(SRC),
                               *args], cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=remaining)
        if done.returncode != 0:
            raise RuntimeError(f"worker exited {done.returncode}: {done.stderr.strip()[-2000:]}")
        return done.stdout


def count_failures(result: dict) -> tuple[int, int, list]:
    """Invocations attempted, invocations failed, and the failures' descriptions."""
    runs = [("warmup", result["warmup"])]
    runs += [(k, it["problems"]) for k, it in enumerate(result["iterations"])]
    attempted = failed = 0
    failures = []
    for where, problems in runs:
        for k, listed in enumerate(problems):
            attempted += 1
            if listed:
                failed += 1
                failures.append({"iteration": where, "invocation": k, "problems": listed})
    return attempted, failed, failures


def scaled(samples: list, key: str) -> list:
    """The ``key`` time of each sample at nominal host speed.

    Each sample is scaled by the mean reference unit timed while it ran; one
    during which the sampler took no unit gets the mean of all the others.
    """
    units = [s["unit_s"] for s in samples if s["unit_s"] is not None]
    fallback = statistics.mean(units) if units else reference.NOMINAL_S
    return [s[key] * reference.scale(fallback if s["unit_s"] is None else s["unit_s"])
            for s in samples]


def end_to_end(result: dict, imports: list) -> tuple[dict, dict]:
    its = result["iterations"]
    walls, cpus, setups = scaled(its, "wall_s"), scaled(its, "cpu_s"), scaled(imports, "import_s")
    tail_s, tail_info = tail(walls)
    values = {"wall_s": statistics.median(walls), "wall_s_tail": tail_s,
              "cpu_s": statistics.median(cpus), "peak_rss_mb": result["peak_rss_mb"],
              "setup_s": statistics.median(setups)}
    samples = {"wall_s": walls, "cpu_s": cpus, "setup_s": setups, "wall_s_tail": tail_info,
               "raw": {"wall_s": [it["wall_s"] for it in its],
                       "cpu_s": [it["cpu_s"] for it in its],
                       "unit_s": [it["unit_s"] for it in its],
                       "units": [it["units"] for it in its],
                       "setup_s": [s["import_s"] for s in imports],
                       "setup_unit_s": [s["unit_s"] for s in imports]}}
    return values, samples


def per_layer(result: dict) -> tuple[dict, dict]:
    values = dict(result["layer_metrics"])
    walls = {traced: scaled([it for it in result["iterations"] if it["traced"] == traced],
                            "wall_s") for traced in (False, True)}
    values["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    return values, {"untraced_wall_s": walls[False], "traced_wall_s": walls[True]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "updyn" / "cli.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'updyn' / 'cli.py'} is missing",
              file=sys.stderr)
        return 2

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results_dir = BENCH / "results"
    workdir = BENCH / "work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    results_dir.mkdir(exist_ok=True)
    result_file = results_dir / f"{name}-worker.json"
    spans_file = results_dir / f"{name}-spans.jsonl"
    seeds = workloads.logistic_seeds(args.workload, args.seed)

    children = Children(TIME_LIMIT_S)

    def probe_imports(count):
        return [json.loads(children.run("--import-only")) for _ in range(count)]

    try:
        imports = probe_imports(IMPORT_PROBES // 2)
        children.run("--workload", args.workload,
                     "--logistic-seeds", ",".join(repr(s) for s in seeds),
                     "--seconds", str(args.seconds), "--trace", str(args.trace),
                     "--workdir", str(workdir), "--result", str(result_file),
                     *(("--spans", str(spans_file)) if args.trace else ()))
        imports += probe_imports(IMPORT_PROBES - IMPORT_PROBES // 2)
    except (subprocess.TimeoutExpired, TimeoutError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = json.loads(result_file.read_text(encoding="utf-8"))
    result_file.unlink()
    shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, failures = count_failures(result)
    if args.trace:
        values, samples = per_layer(result)
    else:
        values, samples = end_to_end(result, imports + [result["import"]])
    units = {row[0]: row[1] for row in layers.END_TO_END + layers.PER_LAYER}

    record = {
        "workload": args.workload, "why": workloads.WHY[args.workload],
        "seed": args.seed, "logistic_seeds": seeds,
        "iterations_per_seed": {repr(s): sum(it["seed"] == s for it in result["iterations"])
                                for s in seeds},
        "seconds": args.seconds, "trace": args.trace, "environment": environment(),
        "argv": [workloads.invocations(args.workload, s) for s in seeds],
        "configs": [workloads.discrete_config(s) for s in seeds]
        if args.workload == "discrete" else None,
        "outputs_sha256": result["outputs_sha256"],
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "failures": failures, "iterations": len(result["iterations"]),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        "samples": samples, "wait_time": layers.WAIT_TIME,
    }
    if args.trace:
        record["mapping"] = {row[0]: {"moves": list(row[3]), "on": list(row[4])}
                             for row in layers.PER_LAYER}
        record["spans_file"] = str(spans_file.relative_to(ROOT))
    (results_dir / f"{name}.json").write_text(json.dumps(record, indent=2) + "\n",
                                              encoding="utf-8")

    print(f"{args.workload} seed={args.seed} iterations={record['iterations']} "
          f"attempted={attempted} failed={failed}")
    for metric, value in values.items():
        print(f"  {metric:<44} {value:.6g} {units[metric]}")
    print(f"  {'failed_frac':<44} {failed / attempted:.6g} ratio")
    for failure in failures[:5]:
        print(f"  FAILED {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
