"""Deterministic CSV and JSON emission for experiment pipelines.

CSV rows carry 17 significant digits so binary64 values round-trip exactly;
JSON reports are written with sorted keys and no wall-clock content, which
makes repeated runs byte-identical.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


CSV_CHUNK_ROWS = 1024


def _write_rows(fh, row_fmt: str, axis, values) -> None:
    """Write ``row_fmt % (axis[i], *values[i])`` for every row.

    Rows are converted to Python numbers at most ``CSV_CHUNK_ROWS`` at a
    time and written one by one, so memory stays flat on long series.
    """
    for lo in range(0, len(values), CSV_CHUNK_ROWS):
        hi = lo + CSV_CHUNK_ROWS
        for a, row in zip(axis[lo:hi].tolist(), values[lo:hi].tolist()):
            fh.write(row_fmt % (a, *row))


def write_function_csv(path, times, samples) -> None:
    """Header t,x1,...,xm; one row per grid node."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.shape[0] != len(times):
        samples = samples.T
    cols = samples.shape[1]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t," + ",".join(f"x{j + 1}" for j in range(cols)) + "\n")
        _write_rows(fh, ",".join(["%.17g"] * (cols + 1)) + "\n",
                    np.asarray(times, dtype=float), samples)


def write_sequence_csv(path, indices, values) -> None:
    """Header i,x1,...,xp; one row per index."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[0] != len(indices):
        values = values.T
    cols = values.shape[1]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("i," + ",".join(f"x{j + 1}" for j in range(cols)) + "\n")
        _write_rows(fh, "%d," + ",".join(["%.17g"] * cols) + "\n",
                    np.asarray(indices), values)


def read_series_csv(path):
    """Load a CSV written by the functions above.

    Returns ("function"|"sequence", axis, values) depending on the header.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    if not header or header[0] not in ("t", "i"):
        raise ValueError(f"{path}: expected a header starting with 't' or 'i'")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    kind = "function" if header[0] == "t" else "sequence"
    return kind, data[:, 0], data[:, 1:]


@dataclass
class CheckRecord:
    """One verdict inside a report: pass, fail or not-applicable."""

    name: str
    status: str
    values: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)

    @staticmethod
    def from_bool(name: str, ok: bool, values=None, tolerances=None) -> "CheckRecord":
        return CheckRecord(name, "pass" if ok else "fail", values or {}, tolerances or {})


def jsonable(obj):
    """Recursively convert numpy scalars, arrays and dataclasses for JSON."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            return repr(obj)
        return obj
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return jsonable(float(obj))
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return repr(obj)


def write_json_report(path, example: str, config_echo: dict, checks: list,
                      evidence: dict, counters: dict) -> None:
    """Write the machine-readable report; ``counters`` replaces wall-clock
    timings so repeated runs stay byte-identical."""
    payload = {
        "example": example,
        "config_echo": jsonable(config_echo),
        "checks": [jsonable(c) for c in checks],
        "evidence": jsonable(evidence),
        "timings": jsonable(counters),
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def failing_checks(checks) -> list[str]:
    return [c.name for c in checks if c.status == "fail"]
