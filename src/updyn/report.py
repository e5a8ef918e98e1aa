"""Deterministic CSV and JSON emission for experiment pipelines.

CSV rows carry 17 significant digits so binary64 values round-trip exactly.
``write_csvs`` writes every CSV on one axis in a single chunked pass: it
formats each chunk of the axis once, and a chunk whose values equal an
earlier file's bit for bit (as a forced solution's do its tail-free twin's
once the tail is below an ulp) reuses that file's text.  JSON reports are
written with sorted keys and no wall-clock content, which makes repeated runs
byte-identical.
"""

from __future__ import annotations

import dataclasses
import json
import warnings
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


# A chunk of 1024 rows formats as fast, but its ~70 kB strings fragment the
# malloc heap: peak RSS of the construct demos then jumps by up to 30 MB.
CSV_CHUNK_ROWS = 128
AXIS_FORMATS = {"t": "%.17g\n", "i": "%d\n"}


def write_csvs(axis_name: str, axis, files) -> int:
    """Write the CSVs of ``(path, values)`` pairs on one axis in one chunked pass.

    Each has the header ``axis_name,x1,...,xm`` and a row per axis value, a
    time ``t`` written ``%.17g`` or an index ``i`` written ``%d``, then its
    values, ``%.17g`` each.  A chunk's axis text is formatted once; a chunk of
    values that equals the same chunk of an earlier file bit for bit takes that
    file's text, and any other is filled by one ``%``.  Only the chunk in hand
    is held as text, so memory stays flat.  Returns the chunks formatted.
    """
    if axis_name not in AXIS_FORMATS:
        raise ValueError(f"an axis '{axis_name}' cannot head a CSV: expected 't' or 'i'")
    axis = np.asarray(axis, dtype=float if axis_name == "t" else None)
    rows = len(axis)
    tables = []
    for _, values in files:
        values = np.atleast_2d(np.asarray(values, dtype=float))
        if values.shape[0] != rows:
            values = values.T
        if values.shape[0] != rows:
            raise ValueError(f"{rows} axis rows, but values of shape {values.shape}")
        tables.append(values)
    formatted = 0
    with ExitStack() as stack:
        handles = [stack.enter_context(open(path, "w", encoding="utf-8", newline="\n"))
                   for path, _ in files]
        for fh, values in zip(handles, tables):
            fh.write(axis_name + "".join(f",x{j + 1}" for j in range(values.shape[1])) + "\n")
        for lo in range(0, rows, CSV_CHUNK_ROWS):
            part = axis[lo:lo + CSV_CHUNK_ROWS].tolist()
            axis_text = AXIS_FORMATS[axis_name] * len(part) % tuple(part)
            done = []  # (bytes, text) of this chunk in the files before
            for fh, values in zip(handles, tables):
                chunk = values[lo:lo + CSV_CHUNK_ROWS]
                key = chunk.tobytes()  # as bytes, -0.0 is not 0.0 and a NaN is itself
                text = next((t for k, t in done if k == key), None)
                if text is None:
                    fields = ",%.17g" * values.shape[1] + "\n"
                    text = axis_text.replace("\n", fields) % tuple(chunk.ravel().tolist())
                    formatted += 1
                done.append((key, text))
                fh.write(text)
    return formatted


def write_function_csv(path, times, samples, more=()) -> None:
    """Header t,x1,...,xm; a row per grid node.  ``more`` (path, samples) join the pass."""
    write_csvs("t", times, [(path, samples), *more])


def write_sequence_csv(path, indices, values, more=()) -> None:
    """Header i,x1,...,xp; a row per index.  ``more`` (path, values) join the pass."""
    write_csvs("i", indices, [(path, values), *more])


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
    """One verdict inside a report: pass, fail or not-applicable.

    The builders below make every record.  Each puts first in ``values`` the
    value its verdict compares, and first in ``tolerances`` what it is compared
    against; ``describe`` names those two.
    """

    name: str
    status: str
    values: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)

    def describe(self) -> str:
        """The name, then the compared value and its tolerance when the record has them."""
        said = "; ".join([f"{k}={v}" for k, v in list(self.values.items())[:1]]
                         + [f"{k} {v}" for k, v in list(self.tolerances.items())[:1]])
        return f"{self.name} ({said})" if said else self.name


def passes(name: str, ok: bool, values: dict | None = None,
           tolerances: dict | None = None) -> CheckRecord:
    """A verdict decided by the caller: pass when ``ok``."""
    return CheckRecord(name, "pass" if ok else "fail", values or {}, tolerances or {})


def at_most(name: str, values: dict, tolerances: dict, limit: float | None = None,
            strict: bool = False) -> CheckRecord:
    """Pass when the first of ``values`` is at most ``limit`` (below it when ``strict``),
    by default the first of ``tolerances``; a None value fails."""
    value = next(iter(values.values()))
    if limit is None:
        limit = next(iter(tolerances.values()))
    return passes(name, value is not None and (value < limit if strict else value <= limit),
                  values, tolerances)


def within(name: str, values: dict, tolerances: dict, expected: float) -> CheckRecord:
    """Pass when the first of ``values`` lies within the first of ``tolerances`` of
    ``expected``."""
    gap = abs(next(iter(values.values())) - expected)
    return passes(name, gap <= next(iter(tolerances.values())), values, tolerances)


def not_applicable(name: str, values: dict | None = None) -> CheckRecord:
    """A verdict the run had nothing to decide on; ``values`` say why."""
    return CheckRecord(name, "not-applicable", values or {})


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
    """Each failing check, described with its compared value and tolerance."""
    return [c.describe() for c in checks if c.status == "fail"]
