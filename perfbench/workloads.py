"""The benchmark's workloads: the CLI invocations of one iteration, built from a seed.

Each workload is a closed loop of one simulated user who types the listed
``updyn`` commands one after another and waits for each to finish.  The
program only ever sees the logistic seeds derived here from the workload seed.
A run cycles its iterations through ``SEEDS_PER_RUN`` logistic seeds: how much
the recurrence scans search depends on the seed, so a run's median then
describes the workload rather than one seed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

# Why each workload exists; BENCHMARK.json repeats these lines.
WHY = {
    "delay": "reproduce 6.3: the method-of-steps hot path (integrate_mos with per-row "
             "nonlinearity calls), Picard check and three 32,001-row function CSVs",
    "construct": "reproduce 6.1 then 6.2: logistic orbit, filter, quadrature oracle and "
                 "recurrence scans; runs no delay or discrete code, so a delay speed-up "
                 "must leave it unchanged",
    "discrete": "run a 40,001-index discrete config, detect on its orbit CSV, then "
                "reproduce 6.4: per-step iterate, sequence CSV writes and reads, and a "
                "scan over a forced orbit",
}

# Measurement window of the discrete config: tens of thousands of indices, deep
# in the tail of the forcing, as in demo 6.4.
DISCRETE_WINDOW = (4000, 44000)
SEEDS_PER_RUN = 16
OUT_DIR = "updyn-report"


def logistic_seeds(workload: str, seed: int) -> list[float]:
    """Map a workload seed to logistic seeds in [0.02, 0.98], the same on every machine.

    The values are never chosen by whether the program's checks pass on them.
    """
    out = []
    for k in range(SEEDS_PER_RUN):
        digest = hashlib.sha256(f"updyn-bench/{workload}/{seed}/{k}".encode()).digest()
        u = int.from_bytes(digest[:8], "big") / 2.0 ** 64
        out.append(round(0.02 + 0.96 * u, 6))
    return out


def config_name(s: float) -> str:
    return f"discrete-{s!r}.json"


def discrete_config(s: float) -> dict:
    return {"kind": "discrete",
            "source": {"seed": s},
            "system": {"forcing": {"type": "construct"}},
            "numeric": {"window": list(DISCRETE_WINDOW)}}


def invocations(workload: str, s: float) -> list[list[str]]:
    """The argv lists of one iteration, as a user would type them after ``updyn``."""
    seed = repr(s)
    if workload == "delay":
        return [["reproduce", "6.3", "--seed", seed]]
    if workload == "construct":
        return [["reproduce", "6.1", "--seed", seed],
                ["reproduce", "6.2", "--seed", seed]]
    if workload == "discrete":
        return [["run", config_name(s)],
                ["detect", f"{OUT_DIR}/discrete_phi_orbit.csv"],
                ["reproduce", "6.4", "--seed", seed]]
    raise ValueError(f"unknown workload {workload!r}")


def prepare(workload: str, s: float, workdir: Path) -> None:
    """Write the input files a workload reads into ``workdir``."""
    if workload == "discrete":
        (workdir / config_name(s)).write_text(json.dumps(discrete_config(s), indent=2) + "\n",
                                              encoding="utf-8")
