import json
from pathlib import Path

import numpy as np
import pytest

from updyn.cli import main, validate_config
from updyn.errors import ConfigError
from updyn.report import read_series_csv, write_function_csv, write_sequence_csv


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

    def test_usage_error_exits_two(self):
        assert run_cli("reproduce") == 2
        assert run_cli("nonsense-command") == 2


class TestCsvRoundTrip:
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

    def test_header_required(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_series_csv(path)


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


class TestDetect:
    def test_detect_sequence_csv(self, tmp_path):
        from updyn import catalog
        from updyn.constructs import build_sequence_triple

        triple = build_sequence_triple(catalog.source_orbit(length=3000))
        path = tmp_path / "series.csv"
        write_sequence_csv(path, triple.psi.indices(), triple.psi.values)
        out = tmp_path / "out"
        assert run_cli("detect", str(path), "--out-dir", str(out),
                       "--epsilon0", "0.3") == 0
        report = json.loads((out / "series_evidence_report.json").read_text())
        assert report["checks"][0]["name"] == "evidence_verified"
        assert report["checks"][0]["status"] == "pass"

    def test_detect_missing_file(self, tmp_path, capsys):
        assert run_cli("detect", str(tmp_path / "missing.csv")) == 2
