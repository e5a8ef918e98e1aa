"""Start-up guards: no command loads scipy, jsonschema, numpy.f2py or numpy.random, and
the CSV writer loads neither fractions nor decimal.

Every ``updyn`` command runs in a fresh process, so module-level imports are
paid on each call.  scipy alone adds about 25-50 MB of resident memory and
0.6 s to a process; the package does its numerics in numpy, and scipy is a
test-only dependency (the ``test`` extra in pyproject.toml), kept as an oracle.
numpy.random (about 5 MB and 9 ms, with ``secrets`` and OpenSSL's ``_hashlib``)
is left out too: the points the package samples at are fixed.
Each case runs in its own interpreter and reports which modules it ended up
loading.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from updyn.report import write_function_csv, write_sequence_csv

SRC = Path(__file__).resolve().parents[1] / "src"


def loaded_modules(tmp_path, code: str) -> set[str]:
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def cli_modules(tmp_path, *argv: str) -> set[str]:
    return loaded_modules(tmp_path, "from updyn.cli import main\n"
                                    f"assert main({list(argv)!r}) == 0")


def families(modules: set[str]) -> set[str]:
    """The heavy families among ``modules``: scipy, jsonschema, numpy.f2py and numpy.random."""
    found = {m.split(".")[0] for m in modules} & {"scipy", "jsonschema"}
    return found | ({"numpy.f2py", "numpy.random"} & modules)


def run_config_modules(tmp_path, config: dict) -> set[str]:
    (tmp_path / "cfg.json").write_text(json.dumps({**config, "output": {"dir": "out"}}))
    return cli_modules(tmp_path, "run", "cfg.json")


def test_import_cli_loads_neither(tmp_path):
    modules = loaded_modules(tmp_path, "import updyn.cli")
    assert "updyn.cli" in modules
    assert families(modules) == set()


def test_reproduce_6_4_loads_neither(tmp_path):
    assert families(cli_modules(tmp_path, "reproduce", "6.4", "--out-dir", "out")) == set()


def test_reproduce_6_2_loads_neither(tmp_path):
    modules = cli_modules(tmp_path, "reproduce", "6.2", "--horizon", "2000", "--out-dir", "out")
    assert families(modules) == set()


def test_reproduce_6_1_loads_none(tmp_path):
    # the function-demo tail and the filter's quadrature oracle
    assert families(cli_modules(tmp_path, "reproduce", "6.1", "--out-dir", "out")) == set()


def test_reproduce_6_3_loads_none(tmp_path):
    # exp(A h) in the stability constants and the Picard check
    assert families(cli_modules(tmp_path, "reproduce", "6.3", "--out-dir", "out")) == set()


def test_run_delay_config_loads_none(tmp_path):
    modules = run_config_modules(tmp_path, {"kind": "delay",
                                            "system": {"forcing": {"type": "zero"}}})
    assert families(modules) == set()


def test_run_construct_function_config_loads_none(tmp_path):
    modules = run_config_modules(tmp_path, {"kind": "construct",
                                            "numeric": {"variant": "function"}})
    assert families(modules) == set()


def test_detect_sequence_csv_loads_neither(tmp_path):
    vals = np.random.default_rng(3).uniform(-1.0, 1.0, (3000, 2))
    write_sequence_csv(tmp_path / "seq.csv", np.arange(3000), vals)
    modules = cli_modules(tmp_path, "detect", "seq.csv", "--horizon", "2000",
                          "--out-dir", "out")
    assert (tmp_path / "out" / "seq_evidence_report.json").exists()
    assert families(modules) == set()


def test_detect_function_csv_loads_none(tmp_path):
    t = np.arange(4001) * 0.05
    write_function_csv(tmp_path / "fn.csv", t, np.column_stack([np.sin(t), np.cos(1.3 * t)]))
    modules = cli_modules(tmp_path, "detect", "fn.csv", "--out-dir", "out")
    assert (tmp_path / "out" / "fn_evidence_report.json").exists()
    assert families(modules) == set()


def test_run_discrete_config_loads_neither(tmp_path):
    (tmp_path / "disc.json").write_text(json.dumps({
        "kind": "discrete",
        "system": {"forcing": {"type": "construct"}},
        "output": {"dir": "out", "prefix": "disc"},
    }))
    assert families(cli_modules(tmp_path, "run", "disc.json")) == set()


def test_the_csv_writer_loads_neither_fractions_nor_decimal(tmp_path):
    # its tables of powers of ten are built from Python integers
    modules = loaded_modules(tmp_path, "import numpy as np\n"
                                       "from updyn.report import write_function_csv\n"
                                       "write_function_csv('f.csv', np.arange(3.0), np.ones(3))")
    assert "updyn.report" in modules and (tmp_path / "f.csv").exists()
    assert not {"fractions", "decimal"} & modules
