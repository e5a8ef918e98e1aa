"""Run one benchmark workload in a fresh process and write its measurements as JSON.

    python3 -m perfbench.worker --src SRC --import-only
    python3 -m perfbench.worker --src SRC --workload NAME --logistic-seeds S1,S2,... \\
        --seconds T --trace 0|1 --workdir DIR --result FILE [--spans FILE]

The worker times ``import updyn.cli``, the set-up every user invocation
pays, and then the reference unit of ``reference.py``.  It then runs one
untimed warm-up iteration and timed iterations until ``--seconds`` have
passed, cycling through the logistic seeds, while a ``reference.Sampler``
measures the host's speed.  The first iteration on each seed sets the
reference bytes of its outputs; every later one must match them.  With ``--trace 1`` the first half of that time is
untraced and the second half traced.  Every invocation goes through
``updyn.cli.main(argv)`` with the argv a user would type, from inside
``--workdir``.  Only standard library imports precede the timed import, so
the worker imports numpy no earlier than the program does.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from perfbench import layers, spans, workloads
from perfbench.reference import Sampler, per_unit


def _snapshot(out: Path) -> dict:
    if not out.is_dir():
        return {}
    return {p.name: (p.stat().st_mtime_ns, p.stat().st_size) for p in out.iterdir()}


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _call(main, argv, tracer):
    """Exit code and, if the program raised, the exception's last line."""
    try:
        if tracer is None:
            return main(argv), None
        with tracer.span("invocation"):
            return main(argv), None
    except Exception as exc:  # a traceback is a failed invocation: count it, keep going
        return None, traceback.format_exception_only(exc)[-1].strip()


def check_invocation(argv, code, error, out: Path, written, reference) -> dict:
    """Exit code, report checks and output bytes of one invocation; ``problems`` lists misses."""
    problems = []
    if error is not None:
        problems.append(f"raised {error}")
    elif code != 0:
        problems.append(f"exit code {code}")
    reports = [name for name in written if name.endswith("_report.json")]
    if len(reports) != 1:
        problems.append(f"wrote {len(reports)} reports")
    else:
        try:
            checks = json.loads((out / reports[0]).read_text(encoding="utf-8"))["checks"]
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"unreadable report: {exc}")
        else:
            failing = [c.get("name") for c in checks if c.get("status") == "fail"]
            if failing:
                problems.append("failing checks: " + ", ".join(map(str, failing)))
    hashes = {name: _sha256(out / name) for name in written}
    if reference is not None and hashes != reference["sha256"]:
        ref = reference["sha256"]
        differ = sorted(n for n in set(hashes) | set(ref) if hashes.get(n) != ref.get(n))
        problems.append("outputs differ from the first iteration: " + ", ".join(differ))
    return {"argv": list(argv), "exit_code": code, "sha256": hashes, "problems": problems}


def run_iteration(main, argvs, reference=None, tracer=None, index=0, sampler=None) -> dict:
    """Run one iteration from the current directory.

    Wall and CPU time cover the ``main`` calls only; clearing the output
    directory, collecting garbage and checking outputs are not timed.  With a
    running ``sampler`` the times leave its samples out, and ``unit_s`` is the
    mean of the samples it took during the iteration (None if it took none).
    """
    sampler = sampler or Sampler()
    first = len(sampler.samples)
    out = Path(workloads.OUT_DIR)
    shutil.rmtree(out, ignore_errors=True)
    gc.collect()
    if tracer is not None:
        tracer.begin_iteration(index)
    wall = cpu = 0.0
    records = []
    seen = _snapshot(out)
    for k, argv in enumerate(argvs):
        w0, c0 = sampler.clock(), sampler.cpu_clock()
        code, error = _call(main, argv, tracer)
        cpu += sampler.cpu_clock() - c0
        wall += sampler.clock() - w0
        now = _snapshot(out)
        written = sorted(name for name, stamp in now.items() if seen.get(name) != stamp)
        seen = now
        records.append(check_invocation(argv, code, error, out, written,
                                        None if reference is None else reference[k]))
    taken = sampler.samples[first:]
    return {"wall_s": wall, "cpu_s": cpu, "unit_s": sum(taken) / len(taken) if taken else None,
            "units": len(taken), "invocations": records}


def import_cli(src: str):
    """Import ``updyn.cli`` from ``src``; return the module and the seconds it took."""
    sys.path.insert(0, src)
    start = time.perf_counter()
    cli = importlib.import_module("updyn.cli")
    elapsed = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise ImportError(f"updyn.cli came from {cli.__file__}, not from {src}")
    return cli, elapsed


def measure(cli, args) -> dict:
    workdir = Path(args.workdir)
    os.chdir(workdir)
    plans = []
    for s in args.logistic_seeds:
        workloads.prepare(args.workload, s, workdir)
        plans.append(workloads.invocations(args.workload, s))
    references = {}  # plan index -> invocation records of that plan's first iteration

    sampler = Sampler()

    def iteration(p, tracer=None, index=0):
        it = run_iteration(cli.main, plans[p], references.get(p), tracer, index, sampler)
        references.setdefault(p, it["invocations"])
        return it

    warmup = iteration(0)
    phases = [(False, args.seconds)] if not args.trace else \
        [(False, args.seconds / 2.0), (True, args.seconds / 2.0)]
    iterations = []
    tracer = spans.Tracer(sampler.clock) if args.trace else None
    for traced, budget in phases:
        # traced iterations reuse the seeds already run untraced, to compare their bytes
        cycle = len(references) if traced else len(plans)
        with spans.installed(tracer) if traced else nullcontext(), sampler:
            start = time.perf_counter()
            while True:
                p = (len(iterations) + (0 if traced else 1)) % cycle
                it = iteration(p, tracer if traced else None, len(iterations))
                iterations.append({"traced": traced, "seed": args.logistic_seeds[p],
                                   **{k: it[k] for k in ("wall_s", "cpu_s", "unit_s", "units")},
                                   "problems": [r["problems"] for r in it["invocations"]]})
                if time.perf_counter() - start >= budget:
                    break

    result = {"warmup": [r["problems"] for r in warmup["invocations"]],
              "iterations": iterations,
              "outputs_sha256": {f"{args.logistic_seeds[p]!r}: {' '.join(r['argv'])}":
                                 r["sha256"] for p, records in sorted(references.items())
                                 for r in records},
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        names = [row[0] for row in layers.PER_LAYER if row[0] != "trace.overhead_s"]
        result["layer_metrics"] = spans.layer_metrics(tracer, names)
        if args.spans:
            tracer.write(args.spans)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--workload", choices=sorted(workloads.WHY))
    parser.add_argument("--logistic-seeds", type=lambda text: [float(v) for v in text.split(",")])
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir")
    parser.add_argument("--result")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    cli, import_s = import_cli(args.src)
    per_unit(5)  # the first units after start-up run cold
    timed = {"import_s": import_s, "unit_s": per_unit(15)}
    if args.import_only:
        print(json.dumps(timed))
        return 0
    result = measure(cli, args)
    result["import"] = timed
    Path(args.result).write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
