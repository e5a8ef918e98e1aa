import json
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from updyn import report
from updyn.cli import main, validate_config
from updyn.errors import ConfigError
from updyn.report import (CSV_CHUNK_ROWS, read_series_csv, write_csvs, write_function_csv,
                          write_sequence_csv)

# bit patterns the writer must keep apart or format like any float: both zeros, the
# smallest subnormal, both infinities, NaNs with a sign or a payload
SPECIAL_BITS = [0x0000000000000000, 0x8000000000000000, 0x0000000000000001,
                0x7ff0000000000000, 0xfff0000000000000, 0x7ff8000000000000,
                0xfff8000000000000, 0x7ff800000000abcd, 0x7ff0000000000001]


def run_cli(*args):
    return main(list(args))


class TestConfigValidation:
    def test_negative_step_names_field(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"kind": "delay", "numeric": {"step": -0.5}}))
        assert run_cli("run", str(cfg)) == 2
        assert "step" in capsys.readouterr().err

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            validate_config({"kind": "nonsense"})

    def test_detect_requires_input(self, tmp_path, capsys):
        cfg = tmp_path / "d.json"
        cfg.write_text(json.dumps({"kind": "detect"}))
        assert run_cli("run", str(cfg)) == 2
        assert "input_csv" in capsys.readouterr().err

    def test_missing_file_is_config_error(self, capsys):
        assert run_cli("run", "/nonexistent/config.json") == 2

    @pytest.mark.parametrize("forcing", ["construct", "zero"])
    def test_step_not_dividing_tau_names_field(self, tmp_path, capsys, forcing):
        cfg = tmp_path / "step.json"
        cfg.write_text(json.dumps({
            "kind": "delay",
            "system": {"tau": 0.2, "forcing": {"type": forcing}},
            "numeric": {"step": 0.03, "window": [0.0, 1.0]},
            "output": {"dir": str(tmp_path / "out")},
        }))
        assert run_cli("run", str(cfg)) == 2
        assert "numeric.step" in capsys.readouterr().err
        assert not (tmp_path / "out" / "delay_report.json").exists()

    @pytest.mark.parametrize("kind", ["discrete", "delay"])
    def test_forcing_value_length_names_field(self, tmp_path, capsys, kind):
        cfg = tmp_path / "forcing.json"
        cfg.write_text(json.dumps({
            "kind": kind,
            "system": {"forcing": {"type": "constant", "value": [0.1, 0.2, 0.3]}},
            "numeric": {"window": [0, 40]},
            "output": {"dir": str(tmp_path / "out")},
        }))
        assert run_cli("run", str(cfg)) == 2
        err = capsys.readouterr().err
        assert "config field 'system.forcing.value'" in err
        assert "got 3" in err
        assert not (tmp_path / "out" / f"{kind}_report.json").exists()

    def test_usage_error_exits_two(self):
        assert run_cli("reproduce") == 2
        assert run_cli("nonsense-command") == 2


class TestCsvRoundTrip:
    # the writer's chunk in test_shared_axis_matches_per_row_formatting: at its own,
    # 2,048 rows, that test's 200 examples take three times as long
    CHUNK = 512

    def test_function_csv(self, tmp_path):
        path = tmp_path / "f.csv"
        times = 0.1 * np.arange(20) - 0.7
        vals = np.sin(np.stack([times, 2 * times], axis=-1))
        write_function_csv(path, times, vals)
        kind, axis, data = read_series_csv(path)
        assert kind == "function"
        np.testing.assert_array_equal(axis, times)
        np.testing.assert_array_equal(data, vals)

    def test_sequence_csv(self, tmp_path):
        path = tmp_path / "s.csv"
        idx = np.arange(-3, 17)
        vals = np.random.default_rng(0).uniform(-1, 1, (20, 3))
        write_sequence_csv(path, idx, vals)
        kind, axis, data = read_series_csv(path)
        assert kind == "sequence"
        np.testing.assert_array_equal(axis, idx)
        np.testing.assert_array_equal(data, vals)

    def test_bytes_match_per_value_formatting(self, tmp_path):
        def fmt(x):
            return format(float(x), ".17g")

        specials = [-0.0, 0.0, 5e-324, np.inf, -np.inf, np.nan, 1e300, -1e300,
                    1e-300, -1e-300, 1.0 / 3.0]
        # more rows than one chunk, so the chunk boundary is covered too
        rng = np.random.default_rng(2)
        vals = rng.standard_normal((5000, 2)) * 10.0 ** rng.integers(-300, 300, (5000, 2))
        vals[:len(specials), 0] = specials
        vals[-len(specials):, 1] = specials
        times = np.concatenate([specials, rng.uniform(-5, 5, 5000 - len(specials))])
        idx = np.arange(-2500, 2500)

        write_function_csv(tmp_path / "f.csv", times, vals)
        expected = "t,x1,x2\n" + "".join(
            fmt(t) + "," + ",".join(fmt(v) for v in row) + "\n" for t, row in zip(times, vals))
        assert (tmp_path / "f.csv").read_bytes() == expected.encode()

        write_sequence_csv(tmp_path / "s.csv", idx, vals)
        expected = "i,x1,x2\n" + "".join(
            f"{int(i)}," + ",".join(fmt(v) for v in row) + "\n" for i, row in zip(idx, vals))
        assert (tmp_path / "s.csv").read_bytes() == expected.encode()

    @pytest.mark.parametrize("rows", [1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1,
                                      2 * CSV_CHUNK_ROWS + 7])
    @pytest.mark.parametrize("cols", [1, 3])
    def test_bytes_across_chunk_boundary(self, tmp_path, rows, cols):
        # one short chunk, one full chunk, then full chunks and a short final one
        vals = np.random.default_rng(rows).uniform(-1e3, 1e3, (rows, cols))
        times = -1.5 + 0.1 * np.arange(rows)
        idx = np.arange(rows) - 2 ** 60   # beyond 2**53: must not pass through float

        write_function_csv(tmp_path / "f.csv", times, vals)
        expected = "".join(",".join(format(v, ".17g") for v in (t, *row)) + "\n"
                           for t, row in zip(times.tolist(), vals.tolist()))
        assert (tmp_path / "f.csv").read_text().split("\n", 1)[1] == expected

        write_sequence_csv(tmp_path / "s.csv", idx, vals)
        expected = "".join(f"{i}," + ",".join(format(v, ".17g") for v in row) + "\n"
                           for i, row in zip(idx.tolist(), vals.tolist()))
        assert (tmp_path / "s.csv").read_text().split("\n", 1)[1] == expected

    @settings(max_examples=200, deadline=None, derandomize=True)
    # k chunks and one row more or less: copied chunks on both sides of a chunk boundary
    @given(data=st.data(), rows=st.sampled_from([1, CHUNK - 1, CHUNK + 1, 2 * CHUNK - 1,
                                                 2 * CHUNK + 1]),
           start=st.one_of(st.integers(-2 ** 62, 2 ** 62), st.integers(-300, 0)))
    # the writer's own chunk is covered by test_bytes_across_chunk_boundary and by
    # tests/test_csv_text.py::TestWidePasses
    @mock.patch.object(report, "CSV_CHUNK_ROWS", CHUNK)
    def test_shared_axis_matches_per_row_formatting(self, data, rows, start):
        special = np.array(SPECIAL_BITS, dtype=np.uint64)

        def floats(shape):
            # each value a special pattern, any 64 bits, or a float of [-1e3, 1e3], from a
            # drawn seed: values drawn one by one overrun hypothesis's entropy at these sizes
            rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 64 - 1)))
            kind = rng.integers(0, 3, shape)
            bits = rng.integers(0, 2 ** 64, shape, dtype=np.uint64)
            bits[kind == 0] = rng.choice(special, np.count_nonzero(kind == 0))
            bits[kind == 2] = rng.uniform(-1e3, 1e3, np.count_nonzero(kind == 2)).view(np.uint64)
            return bits.view(np.float64)

        times = floats(rows)
        idx = start + np.arange(rows)
        chunks = range(0, rows, self.CHUNK)
        widths = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
        columns = []
        for cols in widths:
            vals = floats((rows, cols))
            # chunks copied bit for bit from an earlier file of the same width
            earlier = [v for v in columns if v.shape[1] == cols]
            if earlier:
                source = data.draw(st.sampled_from(earlier))
                for lo in data.draw(st.lists(st.sampled_from(chunks), unique=True)):
                    vals[lo:lo + self.CHUNK] = source[lo:lo + self.CHUNK]
            columns.append(vals)
        with tempfile.TemporaryDirectory() as tmp:
            paths = [Path(tmp) / f"out{k}.csv" for k in range(len(columns))]
            for name, axis, axis_fmt in (("t", times, "%.17g"), ("i", idx, "%d")):
                # a chunk is reused when its bits are those of an earlier file's chunk
                same = [any(np.array_equal(vals[lo:lo + self.CHUNK].view(np.uint64),
                                           prev[lo:lo + self.CHUNK].view(np.uint64))
                            for prev in columns[:k])
                        for k, vals in enumerate(columns) for lo in chunks]
                assert write_csvs(name, axis, list(zip(paths, columns))) == \
                    len(same) - sum(same)
                for path, vals in zip(paths, columns):
                    cols = vals.shape[1]
                    row_fmt = axis_fmt + ",%.17g" * cols + "\n"
                    # the writer's former expression, one row at a time
                    a, v = axis.tolist(), vals.tolist()
                    expected = name + "".join(f",x{j + 1}" for j in range(cols)) + "\n" + \
                        "".join(row_fmt % (a[i], *v[i]) for i in range(rows))
                    assert path.read_text() == expected

    def test_a_repeated_file_formats_no_value_chunk(self, tmp_path):
        rows = 3 * CSV_CHUNK_ROWS + 5
        vals = np.random.default_rng(3).standard_normal((rows, 2))
        paths = [tmp_path / f"{k}.csv" for k in range(3)]
        files = [(paths[0], vals), (paths[1], vals.copy()), (paths[2], vals[:, :1])]
        assert write_csvs("t", np.arange(rows) * 0.5, files) == 8  # of 12
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_negative_zero_keeps_its_text(self, tmp_path):
        # -0.0 == 0.0, but their bits differ, and so does their text
        rows = CSV_CHUNK_ROWS + 1
        paths = [tmp_path / "plus.csv", tmp_path / "minus.csv"]
        assert write_csvs("i", np.arange(rows), [(paths[0], np.zeros((rows, 2))),
                                                 (paths[1], np.full((rows, 2), -0.0))]) == 4
        assert paths[1].read_text() == "i,x1,x2\n" + "".join(f"{i},-0,-0\n" for i in range(rows))

    def test_memory_stays_at_one_chunk_per_file(self, tmp_path):
        # tracemalloc counts every buffer as it is allocated, so the peak is the same on
        # every run; holding a whole file's text would take about 2.5 MB per file here
        rows = 40_001
        times = 0.00625 * np.arange(rows) - 30.0
        rng = np.random.default_rng(5)
        phi = rng.standard_normal((rows, 2))
        psi = phi.copy()
        psi[:rows // 3] += 1e-3
        files = [(tmp_path / "phi.csv", phi), (tmp_path / "psi.csv", psi),
                 (tmp_path / "diff.csv", np.abs(phi - psi)[:, :1])]
        tracemalloc.start()
        try:
            write_csvs("t", times, files)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        chunk = max(len(path.read_bytes()) for path, _ in files) * CSV_CHUNK_ROWS // rows
        assert peak <= 6 * len(files) * chunk, f"peak {peak} B, {peak / chunk:.1f} chunks"

    def test_axis_must_fit_the_writer(self, tmp_path):
        with pytest.raises(ValueError, match="axis 'x'"):
            write_csvs("x", np.arange(3), [(tmp_path / "f.csv", np.zeros(3))])
        with pytest.raises(ValueError, match="3 axis rows"):
            write_csvs("t", np.zeros(3), [(tmp_path / "f.csv", np.zeros(3)),
                                          (tmp_path / "g.csv", np.zeros((4, 2)))])
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, files", [
        (["reproduce", "6.1"], 4), (["reproduce", "6.2"], 3), (["reproduce", "6.3"], 3),
        (["reproduce", "6.4"], 3),
        ({"kind": "discrete", "numeric": {"window": [4000, 4400]}}, 3),
        ({"kind": "discrete", "system": {"forcing": {"type": "zero"}}}, 1)],
        ids=["6.1", "6.2", "6.3", "6.4", "discrete run", "zero-forcing discrete run"])
    def test_each_renderer_formats_its_axis_once(self, tmp_path, monkeypatch, argv, files):
        # one write_csvs call carries all of a renderer's files, and formats the axis once
        calls = []

        def counted(axis_name, axis, pairs):
            calls.append(len(pairs))
            return write_csvs(axis_name, axis, pairs)

        monkeypatch.setattr(report, "write_csvs", counted)
        out = tmp_path / "out"
        if isinstance(argv, dict):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({**argv, "output": {"dir": str(out)}}))
            argv = ["run", str(cfg)]
        else:
            argv = argv + ["--out-dir", str(out)]
        assert run_cli(*argv) == 0
        assert calls == [files]
        assert len(list(out.glob("*.csv"))) == files

    def test_header_required(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_series_csv(path)


class TestCheckBuilders:
    def test_at_most_compares_the_first_value_with_a_limit(self):
        assert report.at_most("c", {"gap": 1.0, "points": 3}, {"gap": 1.0}).status == "pass"
        assert report.at_most("c", {"gap": 1.0}, {"below": 1.0}, strict=True).status == "fail"
        assert report.at_most("c", {"index": None}, {"within": 60}, limit=70).status == "fail"
        record = report.at_most("c", {"sup": 2.0, "bound": 1.5}, {"tol": 0.5}, limit=2.0)
        assert report.jsonable(record) == {"name": "c", "status": "pass", "values": {
            "sup": 2.0, "bound": 1.5}, "tolerances": {"tol": 0.5}}

    def test_within_and_the_failure_text(self):
        record = report.within("norm", {"norm": 1.2, "expected": 1.0}, {"gap": 0.1}, 1.0)
        assert record.status == "fail"
        assert report.failing_checks([record, report.passes("flag", False),
                                      report.not_applicable("scan", {"found": 0})]) \
            == ["norm (norm=1.2; gap 0.1)", "flag"]


class TestReproduce:
    def test_discrete_demo_passes_and_repeats_identically(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("reproduce", "6.4", "--out-dir", str(out)) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run_cli("reproduce", "6.4", "--out-dir", str(out)) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second
        report = json.loads((out / "6.4_report.json").read_text())
        assert all(c["status"] == "pass" for c in report["checks"])
        assert {"example", "config_echo", "checks", "evidence", "timings"} <= set(report)

    def test_unknown_example_is_usage_error(self):
        assert run_cli("reproduce", "9.9") == 2

    @pytest.mark.parametrize("example, horizon, rungs", [("6.1", "1.5", 3), ("6.2", "1", 4)])
    def test_a_scan_that_records_nothing_verifies_nothing(self, tmp_path, example, horizon,
                                                          rungs):
        # D18: the record read "pass" with no values
        assert run_cli("reproduce", example, "--horizon", horizon,
                       "--out-dir", str(tmp_path)) == 0
        report = json.loads((tmp_path / f"{example}_report.json").read_text())
        assert next(c for c in report["checks"] if c["name"] == "evidence_verified") == {
            "name": "evidence_verified", "status": "not-applicable", "tolerances": {},
            "values": {"rungs_found": 0, "rungs": rungs, "separations": 0}}


class TestRunConfigs:
    def test_delay_margin_recomputed_for_other_tau(self, tmp_path, capsys):
        cfg = tmp_path / "tau.json"
        cfg.write_text(json.dumps({
            "kind": "delay",
            "system": {"tau": 0.4, "forcing": {"type": "zero"}},
            "numeric": {"step": 0.0125, "window": [0.0, 8.0]},
            "output": {"dir": str(tmp_path / "out"), "prefix": "tau04"},
        }))
        assert run_cli("run", str(cfg)) == 0
        report = json.loads((tmp_path / "out" / "tau04_report.json").read_text())
        margin = next(c for c in report["checks"] if c["name"] == "contraction_margin")
        import math
        n = (4 + math.sqrt(10)) / math.sqrt(6)
        expected = 2.0 - 2.0 * n * (1.0 / 6.0) * math.exp(0.4)
        assert margin["values"]["A3_margin"] == pytest.approx(expected, abs=1e-6)

    def test_discrete_constant_forcing(self, tmp_path):
        cfg = tmp_path / "disc.json"
        cfg.write_text(json.dumps({
            "kind": "discrete",
            "system": {"forcing": {"type": "constant", "value": [0.1, -0.1]}},
            "numeric": {"window": [0, 60]},
            "output": {"dir": str(tmp_path / "out"), "prefix": "const"},
        }))
        assert run_cli("run", str(cfg)) == 0
        report = json.loads((tmp_path / "out" / "const_report.json").read_text())
        names = {c["name"] for c in report["checks"]}
        assert {"contraction_margin", "spectral_norm", "recurrence_residual"} <= names

    def test_discrete_spectral_norm_of_one_or_more_fails(self, tmp_path):
        # D7: the record read "pass" whatever the norm
        cfg = tmp_path / "disc.json"
        cfg.write_text(json.dumps({
            "kind": "discrete",
            "system": {"matrix": [[1.2, 0.0], [0.0, 0.1]], "forcing": {"type": "zero"}},
            "output": {"dir": str(tmp_path / "out")},
        }))
        assert run_cli("run", str(cfg)) == 1
        report = json.loads((tmp_path / "out" / "discrete_report.json").read_text())
        record = next(c for c in report["checks"] if c["name"] == "spectral_norm")
        assert record["status"] == "fail"
        assert record["values"]["spectral_norm"] == pytest.approx(1.2, abs=1e-12)
        assert record["tolerances"] == {"below": 1.0}

    @pytest.mark.parametrize("system", [
        {"forcing": {"type": "constant", "value": [1e14]}},
        {"matrix": [[0.9, 0.0], [0.0, 0.9]], "nonlinearity": {"type": "zero"},
         "forcing": {"type": "constant", "value": [1.0]}}], ids=["large forcing", "slow rate"])
    def test_constant_forcing_burn_in_grows_with_the_system(self, tmp_path, system):
        # each needs more than the 199 rows of forcing a fixed burn-in gave
        cfg = tmp_path / "disc.json"
        cfg.write_text(json.dumps({"kind": "discrete", "system": system,
                                   "output": {"dir": str(tmp_path / "out")}}))
        assert run_cli("run", str(cfg)) == 0
        report = json.loads((tmp_path / "out" / "discrete_report.json").read_text())
        assert all(c["status"] == "pass" for c in report["checks"])


    def test_overflowing_modal_condition_warns_nothing(self, tmp_path, recwarn, capsys):
        # D20: the modal matrix's condition number overflows; it is inf, silently.  The
        # Lyapunov certificate then refuses the matrix: its Kronecker solve is singular
        cfg = tmp_path / "d20.json"
        cfg.write_text(json.dumps({
            "kind": "delay",
            "system": {"matrix": [[-1.0, 1e300], [0.0, -1.0]], "forcing": {"type": "zero"}},
            "output": {"dir": str(tmp_path / "out")},
        }))
        assert run_cli("run", str(cfg)) == 2
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert "config field 'system.matrix'" in capsys.readouterr().err
        assert not (tmp_path / "out" / "delay_report.json").exists()


class TestDetect:
    def test_sequence_scan_reports_the_shifts_it_took(self, tmp_path):
        # D19: the 401-row 6.4 orbit leaves 401 - 1 - 20 shifts, whatever the horizon
        assert run_cli("reproduce", "6.4", "--out-dir", str(tmp_path)) == 0
        assert run_cli("detect", str(tmp_path / "6.4_phi_orbit.csv"),
                       "--out-dir", str(tmp_path / "det")) == 0
        report = json.loads((tmp_path / "det" / "6.4_phi_orbit_evidence_report.json").read_text())
        assert report["evidence"]["scan"]["scanned_horizon"] == 380
        # D18: the scan records no return and no separation, so it verifies nothing; it
        # read "pass"
        assert report["checks"] == [{
            "name": "evidence_verified", "status": "not-applicable", "tolerances": {},
            "values": {"rungs_found": 0, "rungs": 4, "separations": 0}}]

    def test_detect_sequence_csv(self, tmp_path):
        from updyn import catalog
        from updyn.constructs import build_sequence_triple

        triple = build_sequence_triple(catalog.source_orbit(length=3000))
        path = tmp_path / "series.csv"
        write_sequence_csv(path, triple.psi.times(), triple.psi.values)
        out = tmp_path / "out"
        assert run_cli("detect", str(path), "--out-dir", str(out),
                       "--epsilon0", "0.3") == 0
        report = json.loads((out / "series_evidence_report.json").read_text())
        assert report["checks"][0]["name"] == "evidence_verified"
        # no 21-index window of this orbit returns within 0.2: nothing to verify
        assert report["checks"][0]["status"] == "not-applicable"
        assert report["checks"][0]["values"]["rungs_found"] == 0
        assert report["config_echo"]["window"] == 20

    def test_detect_sequence_csv_window_flag(self, tmp_path):
        from updyn import catalog
        from updyn.constructs import build_sequence_triple

        triple = build_sequence_triple(catalog.source_orbit(length=3000))
        path = tmp_path / "series.csv"
        write_sequence_csv(path, triple.psi.times(), triple.psi.values)
        out = tmp_path / "out"
        assert run_cli("detect", str(path), "--out-dir", str(out), "--window", "8") == 0
        report = json.loads((out / "series_evidence_report.json").read_text())
        assert report["config_echo"]["window"] == 8
        assert all(r["window"] == 8 for r in report["evidence"]["scan"]["return_times"])
        assert report["checks"] == [{
            "name": "evidence_verified", "status": "pass", "tolerances": {},
            "values": {"rungs_found": 4, "rungs": 4, "separations": 4}}]

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_detect_bad_window_exits_two(self, tmp_path, capsys, value):
        path = tmp_path / "seq.csv"
        write_sequence_csv(path, np.arange(50), np.zeros((50, 1)))
        out = tmp_path / "out"
        assert run_cli("detect", str(path), "--out-dir", str(out), "--window", value) == 2
        assert "--window" in capsys.readouterr().err
        assert not (out / "seq_evidence_report.json").exists()

    def test_detect_missing_file(self, tmp_path, capsys):
        assert run_cli("detect", str(tmp_path / "missing.csv")) == 2

    @pytest.mark.parametrize("name, text, message", [
        ("one_row.csv", "t,x1\n0.5,0.25\n", "time axis 't' needs at least 2 rows"),
        ("uneven.csv", "t,x1\n0,0.1\n0.01,0.2\n0.03,0.3\n0.05,0.1\n",
         "time axis 't' is not uniform"),
        ("gap.csv", "i,x1\n0,0.1\n1,0.2\n3,0.3\n4,0.5\n",
         "index axis 'i' is not consecutive integers: row 3"),
        ("empty.csv", "i,x1\n", "no data rows"),
        ("backwards.csv", "t,x1\n0.2,0.1\n0.1,0.2\n0.0,0.3\n", "time axis 't' must increase"),
        ("nan.csv", "i,x1\nnan,0.1\n1,0.2\n", "axis 'i' holds a non-finite value"),
        # one index six times: in float, 2**60 + k is 2**60 for every k below 128
        ("same_index.csv", "i,x1\n" + f"{2 ** 60},0.5\n" * 6,
         "index axis 'i' is not consecutive integers: row 2"),
        ("huge_index.csv", "i,x1\n1e19,0.5\n", "index axis 'i' holds a value that is not"),
    ])
    def test_detect_rejects_bad_axis(self, tmp_path, capsys, name, text, message):
        path = tmp_path / name
        path.write_text(text)
        assert run_cli("detect", str(path), "--out-dir", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert name in err and message in err

    @pytest.mark.parametrize("name, text, message", [
        ("word.csv", b"t,x1\n0,0.1\n0.5,abc\n1,0.2\n", "row 2, column 2 holds 'abc', not a number"),
        # the '#' line is row 2, of one field; it was skipped, and the row after it blamed
        ("ragged.csv", b"t,x1,x2\n0,0.1,0.2\n# a comment\n0.5,0.3\n1,0.2,0.1\n",
         "the field count changes from 3 to 1 in row 2"),
        # np.loadtxt skipped '#' lines and blank lines without a word
        ("comment.csv", b"t,x1\n# c\n0,1\n0.5,4\n1.0,5\n",
         "row 1, column 1 holds '# c', not a number"),
        ("comment_and_blank.csv", b"t,x1\n# c\n0,1\n\n0.5,4\n1.0,5\n", "row 3 is blank"),
        ("blank_first.csv", b"t,x1\n\n0,1\n0.5,4\n", "row 1 is blank"),
        ("blank_last.csv", b"i,x1\n0,1\n1,4\n\n", "row 3 is blank"),
        ("blank_crlf.csv", b"t,x1\r\n0,1\r\n\r\n0.5,4\r\n1.0,5\r\n", "row 2 is blank"),
        ("trailing_comma.csv", b"i,x1\n0,0.1,\n1,0.2,\n", "row 1, column 3 holds '', not a number"),
        ("latin1.csv", b"t,x1\n0,0.1\n0.5,\xb5\n", "not UTF-8 text"),
    ])
    def test_detect_names_a_csv_it_cannot_parse(self, tmp_path, capsys, name, text, message):
        # np.loadtxt's refusals reached stderr without the file, a bad field's row from 0
        path = tmp_path / name
        path.write_bytes(text)
        out = tmp_path / "out"
        assert run_cli("detect", str(path), "--out-dir", str(out)) == 2
        assert f"{path}: {message}" in capsys.readouterr().err
        assert not list(out.glob("*_report.json"))

    def test_detect_scans_an_orbit_indexed_past_2_to_the_53(self, tmp_path):
        i0 = 2 ** 60
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "kind": "discrete", "system": {"forcing": {"type": "constant", "value": [0.3, -0.2]}},
            "numeric": {"window": [i0, i0 + 400]}, "output": {"dir": str(tmp_path / "run")}}))
        assert run_cli("run", str(config)) == 0
        path = tmp_path / "run" / "discrete_orbit.csv"
        kind, axis, _ = read_series_csv(path)
        assert kind == "sequence" and int(axis[0]) == i0 and int(axis[-1]) == i0 + 400
        assert run_cli("detect", str(path), "--out-dir", str(tmp_path / "out")) == 0
        report = json.loads((tmp_path / "out" / "discrete_orbit_evidence_report.json").read_text())
        assert report["evidence"]["scan"]["base_index"] == i0

    def test_function_csv_axis_within_rounding_accepted(self, tmp_path):
        path = tmp_path / "f.csv"
        times = 1e4 + 0.05 * np.arange(400)
        write_function_csv(path, times, np.sin(times)[:, None])
        kind, axis, _ = read_series_csv(path)
        assert kind == "function" and axis.size == 400


class TestDetectFunctionMinShift:
    @staticmethod
    def smooth_csv(tmp_path, step=0.05):
        path = tmp_path / "smooth.csv"
        times = step * np.arange(4001)
        write_function_csv(path, times, np.stack([np.sin(times), np.cos(0.5 * times)], -1))
        return path, step

    @staticmethod
    def read_report(out):
        report = json.loads((out / "smooth_evidence_report.json").read_text())
        assert report["checks"][0]["status"] == "pass"
        shifts = [r["shift"] for r in report["evidence"]["scan"]["return_times"]
                  if r["shift"] is not None]
        assert shifts
        return shifts[0], report["config_echo"]

    def test_default_skips_trivial_grid_step_returns(self, tmp_path):
        path, step = self.smooth_csv(tmp_path)
        out = tmp_path / "out"
        assert run_cli("detect", str(path), "--out-dir", str(out)) == 0
        first, echo = self.read_report(out)
        assert first >= round(1.0 / step)
        assert echo["min_shift"] == 1.0

    def test_flag_sets_smallest_shift(self, tmp_path):
        path, step = self.smooth_csv(tmp_path)
        out = tmp_path / "out"
        assert run_cli("detect", str(path), "--out-dir", str(out), "--min-shift", "7.5") == 0
        first, echo = self.read_report(out)
        assert first >= round(7.5 / step)
        assert echo["min_shift"] == 7.5

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_bad_min_shift_exits_two(self, tmp_path, capsys, value):
        path, _ = self.smooth_csv(tmp_path)
        assert run_cli("detect", str(path), "--out-dir", str(tmp_path / "out"),
                       "--min-shift", value) == 2
        assert "--min-shift" in capsys.readouterr().err

    def test_report_echoes_compared_span(self, tmp_path):
        path, _ = self.smooth_csv(tmp_path)
        out = tmp_path / "out"
        assert run_cli("detect", str(path), "--out-dir", str(out), "--delta", "0.25") == 0
        _, echo = self.read_report(out)
        assert echo["span"] == [0.0, 5.0]
        assert "window" not in echo

    def test_window_rejected_for_function_csv(self, tmp_path, capsys):
        path, _ = self.smooth_csv(tmp_path)
        out = tmp_path / "out"
        assert run_cli("detect", str(path), "--out-dir", str(out), "--window", "5") == 2
        assert "--window" in capsys.readouterr().err
        assert not (out / "smooth_evidence_report.json").exists()

    def test_detect_config_compare_window_only_for_sequences(self, tmp_path, capsys):
        path, _ = self.smooth_csv(tmp_path)
        out = tmp_path / "out"
        cfg = {"kind": "detect", "input_csv": str(path), "output": {"dir": str(out)}}
        (tmp_path / "plain.json").write_text(json.dumps(cfg))
        assert run_cli("run", str(tmp_path / "plain.json")) == 0
        cfg["numeric"] = {"compare_window": 5}
        (tmp_path / "window.json").write_text(json.dumps(cfg))
        assert run_cli("run", str(tmp_path / "window.json")) == 2
        assert "numeric.compare_window" in capsys.readouterr().err

    def test_min_shift_rejected_for_sequence_csv(self, tmp_path, capsys):
        path = tmp_path / "seq.csv"
        write_sequence_csv(path, np.arange(50), np.zeros((50, 1)))
        out = tmp_path / "out"
        assert run_cli("detect", str(path), "--out-dir", str(out), "--min-shift", "1") == 2
        assert "--min-shift" in capsys.readouterr().err
        assert not (out / "seq_evidence_report.json").exists()
