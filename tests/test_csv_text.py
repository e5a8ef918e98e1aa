"""The CSV writer's %.17g kernel against Python's own %.17g, value by value.

``report._Text17`` forms each value's 17 digits in numpy and leaves to ``%``
only the values it cannot round with certainty.  These tests feed it the
values where a digit kernel goes wrong: exact ties, carries into a new power
of ten, the edges of its fixed and exponent forms and of its table, and the
values it must hand over.
"""

from fractions import Fraction

import numpy as np
import pytest

from updyn import report
from updyn.report import CSV_CHUNK_ROWS, write_csvs, write_function_csv, write_sequence_csv


def kernel_text(values) -> list[str]:
    x = np.asarray(values, dtype=float)
    out = np.empty((len(x), 24), np.uint8)
    report._Text17().format(x, out)
    return [row.tobytes().replace(b"\0", b"").decode() for row in out]


def reference(values) -> list[str]:
    return ["%.17g" % v for v in np.asarray(values, dtype=float).tolist()]


def exact_ties() -> list[float]:
    """Doubles k / 2**m whose decimal expansion has 18 significant digits, the last a 5.

    k * 5**m is then an 18-digit odd multiple of 5, so %.17g must round half to
    even.  Such ties exist for exponents X = -8 to 15; at -7 and -8, 10**(16 - X)
    is not a double, so the kernel's product is not exact either.
    """
    rng = np.random.default_rng(19)
    ties = [1234567890123456.25, 1234567890123456.75]
    for m in range(2, 26):
        lo = -(-10 ** 17 // 5 ** m)                      # k * 5**m has 18 digits
        hi = min((10 ** 18 - 1) // 5 ** m + 1, 2 ** 53)  # and k / 2**m is a double
        for k in (lo, hi - 1, *rng.integers(lo, hi, 8).tolist()):
            if k % 2:
                ties.append(k / 2 ** m)
    return ties + [-t for t in ties]


def edge_values() -> list[float]:
    values = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
              2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
              1e-14, 1e98, -1e-14, -1e98, 1e-5, 1e-4, 1e16, 1e17, 1e-100, 1.5e-100, 1e100,
              1e280, 1e281, 1e-280, 1e-281, 0.1, 1 / 3, 2.0 ** 53, 2.0 ** 60]
    for k in range(-307, 309):
        p = float(f"1e{k}")
        values += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf), -p]
    return values


class TestKernelAgainstPercentG:
    def test_exact_ties_round_half_to_even(self):
        assert kernel_text([1234567890123456.25, 1234567890123456.75]) == \
            ["1234567890123456.2", "1234567890123456.8"]
        ties = exact_ties()
        assert len(ties) > 200
        assert kernel_text(ties) == reference(ties)

    def test_ties_and_values_past_the_table_go_through_percent(self, monkeypatch):
        # an exact tie's computed fraction may sit a rounding error off .5, so the
        # kernel never rounds one itself; nor a value past its table or not finite
        handed = []

        def spy(fmt, width, values):
            handed.extend(values)
            return fallback(fmt, width, values)

        fallback = report._fallback
        monkeypatch.setattr(report, "_fallback", spy)
        plain = [0.1, -2.75, 0.0, -0.0, 1e-5, 123456789.0]
        far = [1e-290, -1e300, 5e-324, np.inf, np.nan]
        values = plain + exact_ties() + far
        assert kernel_text(values) == reference(values)
        assert list(map(repr, handed)) == list(map(repr, exact_ties() + far))

    def test_a_rounding_that_carries_into_the_next_power_of_ten(self):
        # the doubles nearest 1e-14 and 1e98 lie just below those powers of ten ...
        assert Fraction(1e-14) < Fraction(1, 10 ** 14) and Fraction(1e98) < 10 ** 98
        # ... and their 17 digits round up to a 1 and one more in the exponent
        assert kernel_text([1e-14, 1e98, 9.9999999999999999e-5]) == ["1e-14", "1e+98",
                                                                     "0.0001"]

    def test_powers_of_ten_their_neighbours_and_the_form_edges(self):
        values = edge_values()
        assert kernel_text(values) == reference(values)
        assert kernel_text([1e-5, 1e-4, 1e16, 1e17, 1.5e-100]) == [
            "1.0000000000000001e-05", "0.0001", "10000000000000000", "1e+17",
            "1.5e-100"]

    def test_random_bits_and_scales(self):
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2 ** 64, 20000, dtype=np.uint64).view(np.float64)
        scaled = rng.standard_normal(20000) * 10.0 ** rng.integers(-300, 300, 20000)
        places = 10.0 ** rng.integers(0, 6, 20000)        # decimals that end early
        short = np.rint(rng.uniform(-1e4, 1e4, 20000) * places) / places
        for values in (bits, scaled, short):
            assert kernel_text(values) == reference(values)


def python_layout(form: int, kept: int) -> list:
    """Source bytes of the text of ``kept`` digits in ``form``, built as lists."""
    digits = [report._LEAD, *range(16)]
    zero, dot = report._ZERO, report._DOT
    if kept == 0:
        text = [zero]
    elif form < 21:
        x = form - 4
        if x < 0:
            text = [zero, dot] + [zero] * (-x - 1) + digits[:kept]
        else:
            text = digits[:x + 1] + ([dot] + digits[x + 1:kept] if kept > x + 1 else [])
    else:
        text = digits[:1] + ([dot] + digits[1:kept] if kept > 1 else [])
        text += range(report._EXP, report._EXP + (4 if form == 21 else 5))
    return [report._NUL] * (report._WIDTH - 1 - len(text)) + [report._SIGN] + text


def python_tables() -> dict:
    """The form, exponent and layout tables, one Python value at a time."""
    xs = range(report._X0, report._X_FAR + 3)
    exponents = b"".join(("e%+03d" % x).encode().ljust(5, b"\0") + sign
                         for sign in (b"\0\0\0", b"-\0\0") for x in xs)
    place = np.arange(32) // 4 * 4 * report._BATCH + np.arange(32) % 4
    layout = place[[python_layout(f, k) for f in range(report._FORMS) for k in range(18)]]
    return {"form": np.array([18 * (x + 4 if -4 <= x <= 16 else 21 + (abs(x) >= 100))
                              for x in xs], np.intp),
            "exponent": np.frombuffer(exponents, np.uint32).reshape(-1, 2).T.copy(),
            "layout": layout.astype(np.int32)}


def test_numpy_tables_equal_the_python_construction():
    tables = report._text_tables()
    for name, expected in python_tables().items():
        got = getattr(tables, name)
        assert got.dtype == expected.dtype and got.shape == expected.shape, name
        np.testing.assert_array_equal(got, expected, err_msg=name)


class TestWidePasses:
    def test_one_chunk_across_kernel_passes(self, tmp_path):
        # a chunk's values, the axis first and then row by row, are formatted in passes of
        # _BATCH: every kind of value sits on both sides of each boundary between passes
        rows = CSV_CHUNK_ROWS
        cols = report._BATCH // rows + 1
        n = rows * (1 + cols)
        assert n > report._BATCH
        ties = exact_ties()
        kinds = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310,
                 1e-290, -1e300, 1e281, -1e-281, ties[0], ties[-1],
                 np.nextafter(ties[0], np.inf), -np.nextafter(ties[1], 0.0), -0.1, -1e16]
        batch = np.random.default_rng(25).standard_normal(n)
        for edge in range(report._BATCH, n, report._BATCH):
            batch[edge - len(kinds):edge] = kinds
            batch[edge:edge + len(kinds)] = kinds[::-1]
        times, vals = batch[:rows], batch[rows:].reshape(rows, cols)
        write_csvs("t", times, [(tmp_path / "f.csv", vals)])
        expected = "".join(",".join(reference([t, *row])) + "\n" for t, row in zip(times, vals))
        assert (tmp_path / "f.csv").read_text().split("\n", 1)[1] == expected

    def test_a_small_write_sizes_the_work_buffers_to_its_values(self, tmp_path, monkeypatch):
        # a 6.4-sized write: buffers of one chunk's 2,406 values, not of a full pass, and
        # a kernel smaller than its values takes them in passes of its own size
        sizes = []
        init = report._Text17.__init__
        monkeypatch.setattr(report._Text17, "__init__",
                            lambda self, size: sizes.append(size) or init(self, size))
        rows = 401
        write_csvs("i", np.arange(4000, 4000 + rows),
                   [(tmp_path / f"{k}.csv", np.zeros((rows, m))) for k, m in enumerate((2, 2, 1))])
        assert sizes == [rows * 6]
        kernel = report._Text17(100)
        assert kernel.floats.shape == (3, 100) and kernel.source.shape == (8, report._BATCH)
        x = np.concatenate([edge_values(), exact_ties()])[:1050]
        out = np.empty((len(x), 24), np.uint8)
        kernel.format(x, out)
        assert [row.tobytes().replace(b"\0", b"").decode() for row in out] == reference(x)

    def test_a_delay_demo_write_takes_the_fewest_passes(self, tmp_path, monkeypatch):
        # 6.3's shape: phi and psi of two columns, then |phi - psi| of one; psi's chunks
        # equal phi's from its tail on, and take phi's text
        calls = []
        batch = report._Text17._batch

        def counted(self, x, out):
            calls[-1] += 1
            return batch(self, x, out)

        def format_(self, x, out):
            calls.append(0)
            return format17(self, x, out)

        format17 = report._Text17.format
        monkeypatch.setattr(report._Text17, "_batch", counted)
        monkeypatch.setattr(report._Text17, "format", format_)
        rows = 32_001
        phi = np.random.default_rng(6).standard_normal((rows, 2))
        psi = phi.copy()
        psi[:4 * CSV_CHUNK_ROWS + 5] += 1e-3
        write_csvs("t", 0.00625 * np.arange(rows) - 30.0,
                   [(tmp_path / "phi.csv", phi), (tmp_path / "psi.csv", psi),
                    (tmp_path / "diff.csv", np.abs(phi - psi)[:, :1])])
        chunks = range(0, rows, CSV_CHUNK_ROWS)
        values = [min(CSV_CHUNK_ROWS, rows - lo) * (6 if lo < 4 * CSV_CHUNK_ROWS + 5 else 4)
                  for lo in chunks]
        assert calls == [-(-v // report._BATCH) for v in values]
        # a chunk whose psi takes phi's text is one pass, and one that psi differs in two
        assert calls[:5] == [2] * 5 and set(calls[5:]) == {1}


class TestWriterAcrossKernelCalls:
    # 2.5 chunks of rows and 7 columns: every chunk takes several kernel passes
    ROWS = 2 * CSV_CHUNK_ROWS + CSV_CHUNK_ROWS // 2 + 3

    def test_function_csv_of_edge_values(self, tmp_path):
        pool = np.array(edge_values() + exact_ties())
        rng = np.random.default_rng(3)
        vals = rng.choice(pool, (self.ROWS, 7))
        times = rng.choice(pool, self.ROWS)
        write_csvs("t", times, [(tmp_path / "a.csv", vals[:, :4]),
                                (tmp_path / "b.csv", vals[:, 4:])])
        for name, part in (("a", vals[:, :4]), ("b", vals[:, 4:])):
            expected = "".join(",".join(reference([t, *row])) + "\n"
                               for t, row in zip(times, part))
            assert (tmp_path / f"{name}.csv").read_text().split("\n", 1)[1] == expected

    @pytest.mark.parametrize("start", [-2 ** 53 - 3, 2 ** 53 - 3, 2 ** 60, -2 ** 60,
                                       1 - 2 ** 53, 2 ** 53 - 3 * CSV_CHUNK_ROWS])
    def test_index_axis_near_and_past_2_to_the_53(self, tmp_path, start):
        # below 2**53 the kernel prints the index; from 2**53 on %d does
        idx = start + np.arange(3 * CSV_CHUNK_ROWS)
        vals = np.linspace(-1.0, 1.0, len(idx))
        write_sequence_csv(tmp_path / "s.csv", idx, vals)
        expected = "i,x1\n" + "".join(f"{i},{v}\n" for i, v in
                                      zip(idx.tolist(), reference(vals)))
        assert (tmp_path / "s.csv").read_text() == expected

    def test_values_beyond_the_table_go_through_percent(self, tmp_path):
        scale = np.arange(1, 2 * CSV_CHUNK_ROWS + 1)[:, None]
        vals = np.array([1e-290, -3e-300, 1e300, 5e-324]) * scale
        times = np.linspace(0.0, 1.0, len(vals))
        write_function_csv(tmp_path / "f.csv", times, vals)
        expected = "".join(",".join(reference([t, *row])) + "\n" for t, row in zip(times, vals))
        assert (tmp_path / "f.csv").read_text().split("\n", 1)[1] == expected
