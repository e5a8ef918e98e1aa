"""Deterministic CSV and JSON emission for experiment pipelines.

CSV rows carry 17 significant digits so binary64 values round-trip exactly;
JSON reports are written with sorted keys and no wall-clock content, which
makes repeated runs byte-identical.
"""

from __future__ import annotations

import dataclasses
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


# A chunk of 1024 rows formats as fast, but its ~70 kB strings fragment the
# malloc heap: peak RSS of the construct demos then jumps by up to 30 MB.
CSV_CHUNK_ROWS = 128


def _write_rows(fh, row_fmt: str, axis, values) -> None:
    """Write ``row_fmt % (axis[i], *values[i])`` for every row.

    Rows are converted to Python numbers ``CSV_CHUNK_ROWS`` at a time, and
    each chunk is formatted by one ``%`` over its flattened rows and written
    at once, so memory stays flat on long series.
    """
    for lo in range(0, len(values), CSV_CHUNK_ROWS):
        hi = min(lo + CSV_CHUNK_ROWS, len(values))
        flat = []
        for a, row in zip(axis[lo:hi].tolist(), values[lo:hi].tolist()):
            flat.append(a)
            flat += row
        fh.write(row_fmt * (hi - lo) % tuple(flat))


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
    Raises ValueError naming the file and the row of any non-finite value, and
    the axis unless a time axis has at least two rows and one step, and an
    index axis holds consecutive integers.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    if not header or header[0] not in ("t", "i"):
        raise ValueError(f"{path}: expected a header starting with 't' or 'i'")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # header-only files, rejected below
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[0] == 0:
        raise ValueError(f"{path}: no data rows")
    rows, cols = np.nonzero(~np.isfinite(data))
    if rows.size:
        where = f"axis '{header[0]}'" if cols[0] == 0 else f"column {cols[0] + 1}"
        raise ValueError(f"{path}: {where} holds a non-finite value in row {rows[0] + 1}")
    axis = data[:, 0]
    if header[0] == "t":
        if axis.size < 2:
            raise ValueError(f"{path}: time axis 't' needs at least 2 rows, got 1")
        steps = np.diff(axis)
        if not steps[0] > 0:
            raise ValueError(f"{path}: time axis 't' must increase; step after row 1 "
                             f"is {float(steps[0])!r}")
        # rounding of t0 + k*h moves a difference by a few ulps of |t|
        slack = 1e-6 * steps[0] + 8 * np.finfo(float).eps * float(np.abs(axis).max())
        off = np.nonzero(np.abs(steps - steps[0]) > slack)[0]
        if off.size:
            k = int(off[0])
            raise ValueError(f"{path}: time axis 't' is not uniform: step "
                             f"{float(steps[0])!r} after row 1, {float(steps[k])!r} "
                             f"after row {k + 1}")
        return "function", axis, data[:, 1:]
    off = np.nonzero(axis != axis[0] + np.arange(axis.size))[0]
    if off.size or not float(axis[0]).is_integer():
        k = int(off[0]) if off.size else 0
        raise ValueError(f"{path}: index axis 'i' is not consecutive integers: "
                         f"row {k + 1} holds {float(axis[k])!r}")
    return "sequence", axis, data[:, 1:]


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
