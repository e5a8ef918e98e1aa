"""Deterministic CSV and JSON emission for experiment pipelines.

CSV rows carry 17 significant digits so binary64 values round-trip exactly.
``write_csvs`` writes every CSV on one axis in a single chunked pass.  For
each chunk of 2,048 rows one call of a numpy kernel, ``_Text17``, writes the
``%.17g`` text of the axis and of every chunk of values not equal bit for bit
to an earlier file's; such a chunk (as a forced solution's is its tail-free
twin's once the tail is below an ulp) reuses that file's text.  The kernel
works in passes of 8,192 values, so a chunk of 6.3's three files takes one
pass, or two while psi's text differs from phi's.  Its text is Python's byte
for byte: what it cannot round with certainty, it hands to ``%``.  JSON
reports are written with sorted keys and no wall-clock content, which makes
repeated runs byte-identical.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import re
import warnings
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np


# Rows per chunk.  One kernel call formats a chunk, in passes of _BATCH values
# that spread its fixed cost of about 50 numpy calls; a chunk of a two-column
# function CSV is about 115 kB of text.  The kernel's tables and work buffers,
# about 1 MB, come on top of a chunk of text a file: for three such files, as
# 6.3 writes, within six chunks a file.
CSV_CHUNK_ROWS = 2048
AXIS_FORMATS = {"t": "%.17g", "i": "%d"}


def write_csvs(axis_name: str, axis, files) -> int:
    """Write the CSVs of ``(path, values)`` pairs on one axis in one chunked pass.

    Each has the header ``axis_name,x1,...,xm`` and a row per axis value, a
    time ``t`` written ``%.17g`` or an index ``i`` written ``%d``, then its
    values, ``%.17g`` each.  Per chunk of rows one kernel call formats the axis
    and every chunk of values not equal bit for bit to the same chunk of an
    earlier file, which takes that file's text instead.  Only the chunk in hand
    is held as text, so memory stays flat.  Returns the chunks of values
    formatted.
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
    # %.17g of an integer-valued double below 2**53 is its %d; other indices keep %d
    width = _WIDTH
    by_kernel = axis_name == "t" or (rows > 0 and axis.dtype.kind in "iu"
                                     and -2 ** 53 < axis.min() and axis.max() < 2 ** 53)
    if not by_kernel and rows:
        width = max(width, *(len("%d" % v) for v in (axis.min(), axis.max())))
    columns = [values.shape[1] for values in tables]
    chunk = min(rows, CSV_CHUNK_ROWS)
    batch = np.empty(chunk * (1 + sum(columns)))
    text17 = _Text17(len(batch))
    slots = np.empty((len(batch), _WIDTH), np.uint8)
    line = np.empty(chunk * (width + 1 + (_WIDTH + 1) * max(columns, default=0)), np.uint8)
    formatted = 0
    with ExitStack() as stack:
        handles = [stack.enter_context(open(path, "wb")) for path, _ in files]
        for fh, m in zip(handles, columns):
            fh.write((axis_name + "".join(f",x{j + 1}" for j in range(m)) + "\n").encode())
        for lo in range(0, rows, CSV_CHUNK_ROWS):
            part = axis[lo:lo + CSV_CHUNK_ROWS]
            r = len(part)
            chunks = [values[lo:lo + r] for values in tables]
            first = _first_equal(chunks)
            fresh = [k for k, j in enumerate(first) if j == k]
            parts = ([part] if by_kernel else []) + [chunks[k].ravel() for k in fresh]
            n = sum(len(p) for p in parts)
            if n:
                np.concatenate(parts, out=batch[:n])
                text17.format(batch[:n], slots[:n])
            if by_kernel:
                axis_slots, at = slots[:r], r
            else:
                axis_slots, at = _fallback(AXIS_FORMATS[axis_name], width, part.tolist()), 0
            # the axis text is as wide as its longest; the NUL columns before go
            axis_text = axis_slots[:, int(axis_slots.any(axis=0).argmax()):]
            texts = {}  # text of a fresh chunk, kept while a later file takes it
            for k, (fh, m) in enumerate(zip(handles, columns)):
                j = first[k]
                if j == k:
                    texts[k] = _rows(line, axis_text, slots[at:at + r * m], m)
                    at += r * m
                fh.write(texts[j] if j in first[k + 1:] else texts.pop(j))
            formatted += len(fresh)
    return formatted


def _first_equal(arrays) -> list:
    """For each array, the index of the first one equal to it bit for bit."""
    keys = [a.tobytes() for a in arrays]  # as bytes, -0.0 is not 0.0 and a NaN is itself
    return [keys.index(key) for key in keys]


def _rows(line, axis_text, value_slots, m: int):
    """A chunk of CSV rows, built in ``line``: per row its axis text and ``m`` value
    slots, each but the last followed by ',', the last by a newline; NULs deleted."""
    r, wa = axis_text.shape
    rows = line[:r * (wa + 1 + (_WIDTH + 1) * m)].reshape(r, -1)
    rows[:, :wa] = axis_text
    rows[:, wa] = ord(",")
    cells = rows[:, wa + 1:].reshape(r, m, _WIDTH + 1)
    cells[:, :, :_WIDTH] = value_slots.reshape(r, m, _WIDTH)
    cells[:, :, _WIDTH] = ord(",")
    cells[:, -1, _WIDTH] = ord("\n")
    rows = rows.reshape(-1)
    return rows[rows != 0]


def _fallback(fmt: str, width: int, values: list):
    """``values`` formatted by ``fmt``, right-aligned in ``width`` bytes after NULs."""
    text = (f"%{width}{fmt[1:]}" * len(values) % tuple(values)).encode()
    text = np.frombuffer(text, np.uint8).reshape(len(values), width)
    return np.where(text == ord(" "), 0, text)


# ---------------------------------------------------------------------------
# %.17g text of many doubles at once
#
# For finite x with X = floor(log10|x|), the 17 significant digits are
# D = round(|x| * 10**(16 - X)), and 10**16 <= D <= 10**17, where 10**17 carries
# into X + 1 (Gay, "Correctly rounded binary-decimal and decimal-binary
# conversions", 1990).  The product is a double-double: Dekker's exact product
# (Numer. Math. 18, 1971) of |x| with hi, the double nearest 10**(16 - X), plus
# |x| times lo, the double nearest the remainder.  Its error is below 1e-14,
# so rounding it is exact unless its fraction lies within _TIE of .5.  Those
# values, every exact tie among them, go through Python's %.17g, as do
# non-finite values and those with |X| > _X_FAR.
#
# The text of a value is then one gather from its 32 source bytes: the 17
# digits, '.', '0', the sign ('-' or NUL) and the exponent text, laid out by a
# table keyed by the value's form and kept digits.  A text is right-aligned in
# a 24-byte slot after NULs, which the writer deletes with the sign's NUL.

_X_FAR = 280
_X0 = -_X_FAR - 2          # table row 0 holds X = _X0; the last holds X = _X_FAR + 2
_TIE = 1e-7
_SPLIT = 134217729.0       # 2**27 + 1: Dekker's split into two 26-bit halves
_WIDTH = 24                # slot of one text: len('%.17g' % -1.2345678901234567e-100)
_BATCH = 8192              # most values per kernel pass; sizes its work buffers, 104 B a value
_GATHER = 1024             # values per layout gather; its index is 24 int32 a value,
                           # which np.take copies to intp
_FORMS = 23                # X = -4..16 in fixed form, then exponents of 2 and 3 digits
# source bytes: digits 1-16 as four words of 4, then a word of digit 0, NUL, '.'
# and '0', a word of NULs, and two words of exponent text with the sign after it
_LEAD, _NUL, _DOT, _ZERO, _EXP, _SIGN = 16, 17, 18, 19, 24, 29


def _layouts() -> np.ndarray:
    """Source bytes of the text of each form and kept digits, (_FORMS, 18, _WIDTH).

    ``kept`` 0 is a zero.  A text is right-aligned: NULs, the sign, then the
    text, where digit 0 is _LEAD and digit i > 0 is i - 1.  A fixed form with
    X < 0 reads '0.', -X - 1 zeros and the kept digits; one with X >= 0 the
    X + 1 leading digits, then '.' and the rest of the kept digits if any are
    left; an exponent form digit 0, then '.' and digits 1 to kept - 1 if kept
    > 1, then its 4 or 5 bytes of exponent text.
    """
    form, kept, slot = np.ogrid[:_FORMS, :18, :_WIDTH]
    x, fixed = form - 4, form < 21
    mantissa = np.where(kept > 1, kept + 1, 1)
    length = np.select([kept == 0, fixed & (x < 0), fixed],
                       [1, 1 - x + kept, x + 1 + np.where(kept > x + 1, kept - x, 0)],
                       mantissa + np.where(form == 21, 4, 5))
    p = slot - (_WIDTH - length)  # position in the text, -1 at the sign

    def digit(i):
        return np.where(i == 0, _LEAD, i - 1)

    return np.select(
        [p < -1, p == -1, kept == 0, fixed & (x < 0), fixed],
        [_NUL, _SIGN, _ZERO,
         np.where(p == 1, _DOT, np.where(p < 1 - x, _ZERO, digit(p - 1 + x))),
         np.where(p == x + 1, _DOT, digit(p - (p > x + 1)))],
        np.where(p >= mantissa, _EXP + p - mantissa,
                 np.where(p == 1, _DOT, digit(p - (p > 1)))))


def _exponent_text(xs: np.ndarray) -> np.ndarray:
    """Per X, then again per X of a negative value: its 8 bytes of exponent text,
    '%+03d' % X after 'e' padded with NULs to 5 bytes, then the value's sign
    ('-' or NUL) and two NULs."""
    a = np.abs(xs)
    text = np.zeros((2, len(xs), 8), np.uint8)
    text[:, :, 0] = ord("e")
    text[:, :, 1] = np.where(xs < 0, ord("-"), ord("+"))
    three = a >= 100
    text[:, :, 2] = np.where(three, a // 100, a // 10) + ord("0")
    text[:, :, 3] = np.where(three, a // 10 % 10, a % 10) + ord("0")
    text[:, :, 4] = np.where(three, a % 10 + ord("0"), 0)
    text[1, :, 5] = ord("-")
    return text


class _Tables(NamedTuple):
    hi: np.ndarray         # per X: the double nearest 10**(16 - X),
    lo: np.ndarray         # the double nearest its remainder,
    high: np.ndarray       # and hi split into two halves of 26 bits
    low: np.ndarray
    form: np.ndarray       # per X: 18 times its form
    exponent: np.ndarray   # per X, then again per X of a negative value: 2 words of text
    digits: np.ndarray     # per group 0-9999: its 4 digits, one word
    last: np.ndarray       # per group: the place of its last non-zero digit, 1-4 (0 if none)
    lead: np.ndarray       # per digit 0-9: the word of digit, NUL, '.', '0'
    layout: np.ndarray     # per form and kept digits: its text's 24 source bytes, int32


@functools.cache
def _text_tables() -> _Tables:
    """The kernel's tables, built once, on first use, from exact integers."""
    xs = np.arange(_X0, _X_FAR + 3)
    hi, lo = [], []
    for x in xs.tolist():
        if x <= 16:
            exact = 10 ** (16 - x)
            hi.append(float(exact))
            lo.append(float(exact - int(hi[-1])))
        else:  # 10**(16 - x) = 1/q, and 1/q - num/den is a ratio of integers
            q = 10 ** (x - 16)
            hi.append(1 / q)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * q) / (den * q))
    hi = np.array(hi)
    high = _SPLIT * hi
    high -= high - hi
    g = np.arange(10000, dtype=np.uint16)
    digits = np.empty((10000, 4), np.uint8)
    for j, unit in enumerate((1000, 100, 10, 1)):
        digits[:, j] = g // unit % 10 + ord("0")
    last = np.full(10000, 4, np.uint8)
    for unit, place in ((10, 3), (100, 2), (1000, 1), (10000, 0)):
        last[g % unit == 0] = place
    # source byte b of value i sits at (b // 4) * 4 * _BATCH + 4 * i + b % 4, below
    # 32 * _BATCH: int32 holds it, where int16 held passes of at most 1,024 values
    place = np.arange(32) // 4 * 4 * _BATCH + np.arange(32) % 4
    layout = place[_layouts().reshape(-1, _WIDTH)]
    return _Tables(hi, np.array(lo), high, hi - high,
                   18 * np.where((xs >= -4) & (xs <= 16), xs + 4, 21 + (np.abs(xs) >= 100)),
                   _exponent_text(xs).view(np.uint32).reshape(-1, 2).T.copy(),
                   digits.view(np.uint32).ravel(), last,
                   np.frombuffer(b"0\0.0", np.uint32) + np.arange(10, dtype=np.uint32),
                   layout.astype(np.int32))


class _Text17:
    """``'%.17g' % v`` of many doubles, ``size`` (at most _BATCH) a pass, in buffers it reuses."""

    def __init__(self, size: int = _BATCH):
        self.tables = _text_tables()
        self.size = size = max(1, min(size, _BATCH))
        self.floats = np.empty((3, size))
        self.ints = np.empty((2, size), np.intp)
        self.groups = np.empty((4, size), np.intp)
        self.source = np.zeros((8, _BATCH), np.uint32)  # the layout's places use its stride
        self.index = np.empty((_GATHER, _WIDTH), np.int32)

    def format(self, x, out) -> None:
        """Write the text of each value of float64 ``x`` into a row of the uint8 array
        ``out``, ``len(x)`` by 24, right-aligned after NULs."""
        for lo in range(0, len(x), self.size):
            self._batch(x[lo:lo + self.size], out[lo:lo + self.size])

    def _scale(self, a, row, ph, t, work) -> None:
        """ph + t = a * 10**(16 - X) for X at ``row``, ph = fl(a * hi): Dekker's
        two-product of a with hi = high + low, plus a * lo.  ``work`` holds 3 rows."""
        tab = self.tables
        ah, al, w = work
        np.multiply(a, _SPLIT, out=ah)
        np.subtract(ah, a, out=al)
        ah -= al                                   # the high 26 bits of a
        np.subtract(a, ah, out=al)
        np.multiply(a, tab.hi[row], out=ph)
        np.multiply(a, tab.lo[row], out=t)
        b = tab.high[row]
        np.multiply(ah, b, out=w)
        w -= ph
        t += w
        np.multiply(al, b, out=w)
        t += w
        b = tab.low[row]
        np.multiply(ah, b, out=w)
        t += w
        np.multiply(al, b, out=w)
        t += w

    def _batch(self, x, out) -> None:
        tab = self.tables
        n = len(x)
        a, ph, t = self.floats[:3, :n]
        row, lead = self.ints[:, :n]
        np.abs(x, out=a)
        np.maximum(a, 1e-320, out=t)               # log10 of a zero: far below the range
        np.log10(t, out=t)
        np.floor(t, out=t)
        zero = slow = None
        if not np.abs(t, out=ph).max() <= _X_FAR:  # ph holds |X| for now; a NaN fails
            far = ~(ph <= _X_FAR)
            zero = a == 0
            slow = far & ~zero
            a[far] = 2.0
            t[far] = 0.0
        np.subtract(t, _X0, out=row, casting="unsafe")
        g = self.groups[:, :n]
        self._scale(a, row, ph, t, g[1:].view(float))   # the groups are free until D
        if not (ph.min() > 1e16 and ph.max() < 1e17):
            # log10 was one off near a power of ten, or the product sits on an end
            k = np.flatnonzero((ph <= 1e16) | (ph >= 1e17))
            pk, tk = ph[k], t[k]
            row[k] += ((pk > 1e17) | ((pk == 1e17) & (tk >= 0))).astype(np.intp)
            row[k] -= (pk < 1e16) | ((pk == 1e16) & (tk < 0))
            self._scale(a[k], row[k], pk, tk, np.empty((3, len(k))))
            ph[k], t[k] = pk, tk
        # D = ph + round(t): ph is an even integer above 2**53, and |t| < 20
        np.rint(t, out=a)
        t -= a
        if np.abs(t, out=t).max() > 0.5 - _TIE:   # near a tie, rounding error may flip it
            tie = t > 0.5 - _TIE
            slow = tie if slow is None else slow | tie
        d = g[0]
        np.copyto(d, ph, casting="unsafe")
        np.copyto(lead, a, casting="unsafe")
        d += lead
        if d.max() >= 10 ** 17:                    # rounded up to 10**17: one more digit
            carry = d >= 10 ** 17
            d[carry] = 10 ** 16
            row[carry] += 1
        # D = 10**16 lead + 10**12 g1 + 10**8 g2 + 10**4 g3 + g4, for g = (g1, g2, g3, g4)
        np.floor_divide(d, 10 ** 8, out=g[1])
        np.floor_divide(g[1], 10 ** 8, out=lead)
        np.multiply(g[1], 10 ** 8, out=g[2])
        np.subtract(d, g[2], out=g[3])
        np.multiply(lead, 10 ** 8, out=g[2])
        g[1] -= g[2]
        pairs = g.reshape(2, 2, n)                 # (g1, g2) and (g3, g4)
        np.floor_divide(pairs[:, 1], 10 ** 4, out=pairs[:, 0])
        pairs[:, 1] -= pairs[:, 0] * 10 ** 4
        src = self.source[:, :n]
        src[:4] = tab.digits[g]
        src[4] = tab.lead[lead]
        signed = row + np.signbit(x) * len(tab.form)   # a negative value's rows follow
        src[6] = tab.exponent[0, signed]
        src[7] = tab.exponent[1, signed]
        # kept digits: up to the last non-zero one of the last non-zero group
        last = tab.last[g]
        kept = np.where(last > 0, last + np.arange(1, 17, 4, dtype=np.uint8)[:, None], 1)
        key = tab.form[row]
        key += kept.max(axis=0)
        if zero is not None:
            key[zero] = 0                          # form 0, no digits: the text of a zero
        flat = self.source.view(np.uint8).ravel()
        index = self.index
        base = np.arange(0, 4 * _GATHER, 4, dtype=np.int32)[:, None]
        for lo in range(0, n, _GATHER):
            m = min(_GATHER, n - lo)
            np.take(tab.layout, key[lo:lo + m], axis=0, out=index[:m])
            index[:m] += base[:m]
            # every index is in range; mode "raise" would copy ``out`` to check them
            np.take(flat[4 * lo:], index[:m], out=out[lo:lo + m], mode="wrap")
        if slow is not None and slow.any():
            k = np.flatnonzero(slow)
            out[k] = _fallback("%.17g", _WIDTH, x[k].tolist())


def write_function_csv(path, times, samples, more=()) -> None:
    """Header t,x1,...,xm; a row per grid node.  ``more`` (path, samples) join the pass."""
    write_csvs("t", times, [(path, samples), *more])


def write_sequence_csv(path, indices, values, more=()) -> None:
    """Header i,x1,...,xp; a row per index.  ``more`` (path, values) join the pass."""
    write_csvs("i", indices, [(path, values), *more])


def read_series_csv(path):
    """Load a CSV written by the functions above.

    Returns ("function"|"sequence", axis, values) depending on the header.
    Raises ValueError naming the file: with the row of a blank line, when it is
    not UTF-8 text, with the row and column of a field that is not a number (a
    line starting with '#' included), with the row where the field count
    changes, when no value column follows the axis, with the row of any
    non-finite value, and with the axis unless a time axis has at least two
    rows and one step, and an index axis holds consecutive integers, checked
    exactly past 2**53.  Rows count the data rows from 1.
    """
    with open(path, "rb") as fh:
        text = fh.read()
    header = re.match(rb"[^\n]*", text).group().decode("utf-8", "replace").strip().split(",")
    if not header or header[0] not in ("t", "i"):
        raise ValueError(f"{path}: expected a header starting with 't' or 'i'")
    blank = re.search(rb"\n\r?\n", text)  # np.loadtxt would skip it without a word
    if blank:
        row = text.count(b"\n", 0, blank.end()) - 1
        raise ValueError(f"{path}: row {row} is blank")
    del text  # np.loadtxt reads a path faster than the same bytes from memory
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # header-only files, rejected below
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, comments=None)
    except ValueError as exc:
        raise ValueError(f"{path}: {_unparsed(exc)}") from None
    if data.shape[0] == 0:
        raise ValueError(f"{path}: no data rows")
    if data.shape[1] < 2:
        raise ValueError(f"{path}: no value column after the axis '{header[0]}'")
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
    if axis.min() <= -2.0 ** 53 or axis.max() >= 2.0 ** 53:
        # past 2**53 a float no longer holds every integer, so the check takes the text
        try:
            axis = np.loadtxt(path, delimiter=",", skiprows=1, usecols=0, dtype=np.int64, ndmin=1)
        except (ValueError, OverflowError):
            raise ValueError(f"{path}: index axis 'i' holds a value that is not a 64-bit "
                             "integer") from None
    off = np.nonzero(axis != axis[0] + np.arange(axis.size))[0]
    if off.size or not float(axis[0]).is_integer():
        k = int(off[0]) if off.size else 0
        raise ValueError(f"{path}: index axis 'i' is not consecutive integers: "
                         f"row {k + 1} holds {axis[k].item()!r}")
    return "sequence", axis, data[:, 1:]


def _unparsed(exc: ValueError) -> str:
    """``np.loadtxt``'s refusal with its data rows counted from 1: it counts a field
    it cannot convert from 0, and a row whose field count changed from 1."""
    if isinstance(exc, UnicodeDecodeError):
        return f"not UTF-8 text ({exc.reason})"
    reason = str(exc)
    match = re.match(r"could not convert string (.*) to float64 at row (\d+), column (\d+)",
                     reason)
    if match:
        text, row, column = match.groups()
        return f"row {int(row) + 1}, column {column} holds {text}, not a number"
    match = re.match(r"the number of columns changed from (\d+) to (\d+) at row (\d+)", reason)
    if match:
        before, after, row = match.groups()
        return f"the field count changes from {before} to {after} in row {row}"
    return reason


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
        return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
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
