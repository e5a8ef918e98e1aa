"""Every flag and config field is used or rejected, through one table of demos.

``reproduce``, ``run`` and ``detect`` share ``cli.DEMOS`` and one run path:
an input an entry does not take, or a value outside its rule, exits 2 with
the flag or field named before any output is written; an accepted input
reaches the runner only when it was given.
"""

import ast
import hashlib
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from updyn import catalog, cli
from updyn.report import write_function_csv, write_sequence_csv


def run(argv, capsys):
    code = cli.main([str(a) for a in argv])
    return code, capsys.readouterr()


def write_config(path: Path, config) -> Path:
    path.write_text(config if isinstance(config, str) else json.dumps(config))
    return path


def nan_sample_csv(path: Path) -> Path:
    times = 0.05 * np.arange(400)
    samples = np.sin(times)[:, None]
    samples[7, 0] = np.nan
    write_function_csv(path, times, samples)
    return path


def function_csv(tmp_path: Path) -> Path:
    """A function CSV on the grid of the 6.1 demo's outputs: [-20, 180], step 0.05."""
    times = -20.0 + 0.05 * np.arange(4001)
    path = tmp_path / "6.1_phi.csv"
    write_function_csv(path, times, np.stack([np.sin(times), np.cos(times)], axis=-1))
    return path


def csv_text(name: str, text: str):
    """A CSV maker that writes ``text`` to ``name``."""
    def make(tmp_path: Path) -> Path:
        path = tmp_path / name
        path.write_text(text)
        return path
    return make


def sequence_csv(tmp_path: Path) -> Path:
    """A sequence CSV of 2,001 rows, as long as the 6.2 demo's outputs."""
    path = tmp_path / "6.2_phi.csv"
    write_sequence_csv(path, np.arange(2001), np.sin(np.arange(2001.0))[:, None])
    return path


# a stiff delay system: RK4 at the default step tau / 32 has spectral radius 1.645 on it
STIFF = {"kind": "delay", "system": {"matrix": [[-500.0]], "nonlinearity": {"type": "zero"},
                                     "forcing": {"type": "constant", "value": [1.0]}},
         "numeric": {"window": [0, 1]}}

# (case id, reproduce argv, run config or (CSV maker, *detect flags), text the error must hold)
BAD_INPUTS = [
    # inputs that used to be replaced by a default (`x or default`)
    ("6.4 seed 0", ["6.4", "--seed", "0"], "--seed"),
    ("6.4 tol 0", ["6.4", "--tol", "0"], "--tol"),
    ("6.1 horizon 0", ["6.1", "--horizon", "0"], "--horizon"),
    # flags a demo ignored but echoed
    ("6.4 step horizon", ["6.4", "--step", "7", "--horizon", "3"], "--step"),
    ("6.2 step", ["6.2", "--step", "0.1", "--horizon", "2000"], "--step"),
    ("6.2 tol", ["6.2", "--tol", "0.1", "--horizon", "2000"], "--tol"),
    # config fields the construct-forced discrete demo ignored
    ("discrete matrix", {"kind": "discrete", "system": {"matrix": [[1e308, 0], [0, 1e308]]}},
     "config field 'system.matrix'"),
    ("discrete tau", {"kind": "discrete", "system": {"tau": 0.3}}, "config field 'system.tau'"),
    ("discrete step", {"kind": "discrete", "numeric": {"step": 0.1}},
     "config field 'numeric.step'"),
    ("discrete burn_in_time", {"kind": "discrete", "numeric": {"burn_in_time": 3.0}},
     "config field 'numeric.burn_in_time'"),
    ("zero forcing value", {"kind": "discrete",
                            "system": {"forcing": {"type": "zero", "value": [1.0]}}},
     "config field 'system.forcing.value'"),
    # inputs that ended in a traceback
    ("6.2 horizon nan", ["6.2", "--horizon", "nan"], "--horizon"),
    ("6.2 horizon 1e13", ["6.2", "--horizon", "1e13"], "--horizon"),
    ("delay tau 1e300", {"kind": "delay", "system": {"tau": 1e300}},
     "config field 'system.tau'"),
    # input errors that exited 1, the check-failure code
    ("6.4 seed 1.5", ["6.4", "--seed", "1.5"], "--seed"),
    ("6.3 step 0.3", ["6.3", "--step", "0.3"], "--step"),
    ("6.1 step 0.03", ["6.1", "--step", "0.03"], "--step"),
    ("6.1 horizon 0.001", ["6.1", "--horizon", "0.001"], "--horizon"),
    ("6.4 window from 0", {"kind": "discrete", "numeric": {"window": [0, 400]}},
     "config field 'numeric.window'"),
    ("json seed NaN", '{"kind": "discrete", "source": {"seed": NaN}}',
     "config field 'source.seed'"),
    ("json window Infinity", '{"kind": "discrete", "numeric": {"window": [4000, Infinity]}}',
     "config field 'numeric.window'"),
    # a horizon that used to be truncated to an integer without a word
    ("6.2 horizon 2000.7", ["6.2", "--horizon", "2000.7"], "--horizon"),
    ("6.1 step 1e-9", ["6.1", "--step", "1e-9"], "--step"),
    ("ladder", {"kind": "construct", "source": {"horizon": 2000}, "numeric": {"ladder": [0.1]}},
     "config field 'numeric.ladder'"),
    ("detect nan sample", "nan-sample", "row 8"),
    ("reversed window", {"kind": "discrete", "system": {"forcing": {"type": "zero"}},
                         "numeric": {"window": [400, 0]}}, "config field 'numeric.window'"),
    ("ragged matrix", {"kind": "discrete", "system": {"forcing": {"type": "zero"},
                                                      "matrix": [[0.1, 0.0], [0.0]]}},
     "config field 'system.matrix'"),
    # a two-component demo nonlinearity on a 3x3 system ran on uninitialised memory
    ("discrete 3x3 sin_cos", {"kind": "discrete", "system": {
        "forcing": {"type": "zero"}, "matrix": (0.1 * np.eye(3)).tolist()}},
     "config field 'system.matrix'"),
    ("delay 3x3 arctan_arccot", {"kind": "delay", "system": {
        "forcing": {"type": "zero"}, "matrix": (-np.eye(3)).tolist(),
        "nonlinearity": {"type": "arctan_arccot"}}, "numeric": {"window": [0, 1]}},
     "system.nonlinearity.type"),
    # scans that could take no shift: they reported every rung not found and exited 0
    ("6.1 horizon below the smallest shift", ["6.1", "--horizon", "0.5"], "--horizon"),
    ("detect horizon below the smallest shift", (function_csv, "--horizon", "0.5"),
     "--horizon"),
    ("detect min-shift past the grid", (function_csv, "--min-shift", "50000"), "--min-shift"),
    # runner errors that exited 1
    ("detect horizon below a grid step", (function_csv, "--horizon", "0.001"), "--horizon"),
    ("detect window past the series", (sequence_csv, "--window", "5000"), "--window"),
    # a step too coarse for a grid ended in a KeyError traceback
    ("6.1 step 1e5", ["6.1", "--step", "1e5"], "--step"),
    # delta errors that exited 1, and a delta a sequence scan ignored but echoed
    ("detect delta below four grid steps", (function_csv, "--delta", "0.1"), "--delta"),
    ("detect delta off the grid", (function_csv, "--delta", "0.2001"), "--delta"),
    ("detect delta on a sequence", (sequence_csv, "--delta", "5"), "--delta"),
    ("detect delta spanning the grid", (function_csv, "--delta", "100"), "--delta"),
    # rules owned by a scan or a demo runner, which exited 1 with an internal error
    ("6.1 step 0.1", ["6.1", "--step", "0.1"],
     "--step: the grid step, 0.1, must be at most delta/4 = 0.05"),
    ("delay tau 1.5", {"kind": "delay", "system": {"tau": 1.5}}, "config field 'system.tau'"),
    ("delay epsilon 1e-300", {"kind": "delay", "numeric": {"epsilon": 1e-300}},
     "config field 'numeric.epsilon'"),
    ("discrete epsilon 1e-300", {"kind": "discrete", "numeric": {"epsilon": 1e-300}},
     "config field 'numeric.epsilon'"),
    ("delay window [0, 1]", {"kind": "delay", "numeric": {"window": [0, 1]}},
     "config field 'numeric.window'"),
    ("discrete window [1, 50]", {"kind": "discrete", "numeric": {"window": [1, 50]}},
     "config field 'numeric.window'"),
    # the integrator's four-steps-per-delay rule, which exited 1 with an internal error
    ("6.3 step 0.1", ["6.3", "--step", "0.1"], "--step"),
    ("6.3 step 0.2", ["6.3", "--step", "0.2"], "--step"),
    ("delay step 0.1", {"kind": "delay", "numeric": {"step": 0.1}},
     "config field 'numeric.step'"),
    # constant forcing: a norm past the float range ended in a traceback, and a burn-in
    # of 533 million rows was not counted against MAX_ROWS
    ("discrete forcing 1e200", {"kind": "discrete", "system": {
        "forcing": {"type": "constant", "value": [1e200]}}},
     "config field 'system.forcing.value'"),
    ("discrete burn-in past MAX_ROWS", {"kind": "discrete", "system": {
        "matrix": [[0.9999999, 0.0], [0.0, 0.0]], "nonlinearity": {"type": "zero"},
        "forcing": {"type": "constant", "value": [1.0]}}}, "config field 'system.matrix'"),
    # the delay burn-in was not counted against MAX_ROWS: about 59 million RK4 steps
    ("delay burn-in past MAX_ROWS", {"kind": "delay", "system": {
        "matrix": (-1e-4 * np.eye(2)).tolist(), "nonlinearity": {"type": "zero"},
        "forcing": {"type": "zero"}}, "numeric": {"window": [0, 1]}},
     "config field 'numeric.window'"),
    # a scale on a map other than tanh was ignored
    ("discrete sin_cos scale", {"kind": "discrete", "system": {
        "forcing": {"type": "zero"}, "nonlinearity": {"type": "sin_cos", "scale": 5}}},
     "config field 'system.nonlinearity.scale'"),
    ("delay scale without a type", {"kind": "delay", "system": {
        "forcing": {"type": "zero"}, "nonlinearity": {"scale": 3}}},
     "config field 'system.nonlinearity.scale'"),
    # tol * margin / scale underflowed to 0 in the discrete burn-in: log(0)
    ("discrete forcing 1e150 tol 1e-180", {"kind": "discrete", "system": {
        "forcing": {"type": "constant", "value": [1e150]}}, "numeric": {"tol": 1e-180}},
     "config field 'numeric.tol'"),
    ("6.4 tol subnormal", ["6.4", "--tol", "5e-324"], "--tol"),
    # an epsilon that put alpha less than one delay into the window exited 1 with an
    # internal error from the Picard check, after the whole integration
    ("delay epsilon 2000.7", {"kind": "delay", "numeric": {"epsilon": 2000.7}},
     "config field 'numeric.epsilon'"),
    ("delay epsilon 1e300", {"kind": "delay", "numeric": {"epsilon": 1e300}},
     "config field 'numeric.epsilon'"),
    ("delay epsilon 1.7e308", {"kind": "delay", "numeric": {"epsilon": 1.7e308}},
     "config field 'numeric.epsilon'"),
    # a window ending before the tail check's start exited 1 with tail_sup=nan
    ("delay construct window [0, 20]", {"kind": "delay", "system": {
        "forcing": {"type": "construct"}}, "numeric": {"window": [0, 20]}},
     "config field 'numeric.window'"),
    # a window starting where alpha fell named only epsilon, which the config did not set
    ("delay window alpha within a delay", {"kind": "delay", "numeric": {"window": [100, 120]}},
     "config field 'numeric.window'"),
    # a window shorter than the sum check's truncation depth exited 1, leaving an empty
    # output directory
    ("discrete window [4000, 4040]", {"kind": "discrete", "numeric": {"window": [4000, 4040]}},
     "config field 'numeric.window'"),
    # a smallest shift past the float range overflowed when counted in grid steps
    ("detect min-shift 1.7e308", (function_csv, "--min-shift", "1.7e308"), "--min-shift"),
    # a matrix that is not exponentially stable exited 1 with an internal error
    ("delay unstable matrix", {"kind": "delay", "system": {
        "matrix": [[0.1, 0], [0, -1]], "forcing": {"type": "zero"}}},
     "config field 'system.matrix'"),
    ("delay zero matrix", {"kind": "delay", "system": {
        "matrix": [[0, 0], [0, 0]], "forcing": {"type": "zero"}}},
     "config field 'system.matrix'"),
    # exp(A h) past the float range ended in an SVD traceback
    ("delay matrix 1e200", {"kind": "delay", "system": {
        "matrix": [[-1e200, 1e200], [-1e200, -1e200]], "forcing": {"type": "zero"}}},
     "config field 'system.matrix'"),
    # matrices with no Lyapunov certificate: a residual of 28.8, and a singular solve
    ("delay matrix 1e8", {"kind": "delay", "system": {
        "matrix": [[-1, 1e8], [0, -1]], "forcing": {"type": "zero"}}},
     "config field 'system.matrix'"),
    ("delay matrix 1e300", {"kind": "delay", "system": {
        "matrix": [[-1, 1e300], [0, -1]], "forcing": {"type": "zero"}}},
     "config field 'system.matrix'"),
    # an RK4 step too coarse for a stiff system blew up and failed the sup check, or
    # exited 1 with an internal error
    ("delay stiff matrix", STIFF, "config field 'system.matrix'"),
    ("delay stiff matrix step", {**STIFF, "numeric": {**STIFF["numeric"], "step": 0.00625}},
     "config field 'numeric.step'"),
    ("delay matrix -1e300", {**STIFF, "system": {**STIFF["system"], "matrix": [[-1e300]]}},
     "config field 'system.matrix'"),
    # a burn-in of 5.9e303 rows was refused in a 304-digit number
    ("delay burn-in 1e-300", {"kind": "delay", "system": {
        "matrix": [[-1e-300, 0], [0, -1e-300]], "nonlinearity": {"type": "zero"},
        "forcing": {"type": "zero"}}, "numeric": {"window": [0, 1]}},
     "5.89e+303 of them burn-in"),
    # an output directory that is a file ended in a traceback, after the whole run
    ("6.4 out-dir a file", ["6.4"], "--out-dir: "),
    ("discrete output.dir a file", {"kind": "discrete", "system": {"forcing": {"type": "zero"}}},
     "config field 'output.dir': "),
    # a prefix naming a subdirectory ended in a traceback from the CSV writer, after the run
    ("discrete output.prefix a/b", {"kind": "discrete", "system": {"forcing": {"type": "zero"}},
                                    "output": {"prefix": "a/b"}},
     "config field 'output.prefix': "),
    # a CSV with no value column reported a verdict on nothing and exited 0
    ("detect t only", (csv_text("t_only.csv", "t\n" + "".join(f"{0.05 * k!r}\n"
                                                               for k in range(400))),),
     "t_only.csv"),
    ("detect i only", (csv_text("i_only.csv", "i\n0\n1\n2\n"), "--window", "1"), "i_only.csv"),
    # a delay forcing whose norm overflows passed its sup check on inf against inf
    ("delay forcing 1e200", {"kind": "delay", "system": {
        "forcing": {"type": "constant", "value": [1e200]}}, "numeric": {"window": [0, 1]}},
     "config field 'system.forcing.value'"),
    # a delay window far from 0: at 1e12 the step did not divide the run from its burn-in
    # start, which exited 1 naming no field; at 1e17 the grid times collapsed onto a few
    # doubles, and the run exited 0 with a CSV that detect refuses
    ("delay window 1e12", {"kind": "delay", "system": {"forcing": {"type": "zero"}},
                           "numeric": {"window": [1e12, 1000000000020]}},
     "config field 'numeric.window'"),
    ("delay window 1e17", {"kind": "delay", "system": {"forcing": {"type": "zero"}},
                           "numeric": {"window": [1e17, 1.00000000000002e17]}},
     "config field 'numeric.window'"),
    # a discrete window past the int64 range: its index column wrapped to -2^63 and the run
    # exited 0, or, below -2^63, it ended in an OverflowError traceback
    ("discrete window past 2^63", {"kind": "discrete", "system": {"forcing": {"type": "zero"}},
                                   "numeric": {"window": [9223372036854775800,
                                                          9223372036854775810]}},
     "config field 'numeric.window'"),
    ("discrete window before -2^63", {"kind": "discrete",
                                      "system": {"forcing": {"type": "zero"}},
                                      "numeric": {"window": [-9223372036854775900,
                                                             -9223372036854775800]}},
     "config field 'numeric.window'"),
    # a 6.4 window whose burn-in starts before the forcing's index 0 exited 1 naming no field
    ("discrete window [1, 4000]", {"kind": "discrete", "numeric": {"window": [1, 4000]}},
     "config field 'numeric.window'"),
    # two faults in one config: the first in the order scale, matrix, value is named
    ("discrete scale and value", {"kind": "discrete", "system": {
        "nonlinearity": {"type": "sin_cos", "scale": 2},
        "forcing": {"type": "constant", "value": [1, 2, 3]}}},
     "config field 'system.nonlinearity.scale'"),
    ("delay 3x3 arctan_arccot and value", {"kind": "delay", "system": {
        "matrix": (-np.eye(3)).tolist(), "forcing": {"type": "constant", "value": [1, 2]}}},
     "config field 'system.matrix'"),
    ("delay step and value", {"kind": "delay", "system": {
        "forcing": {"type": "zero", "value": [1]}}, "numeric": {"step": 0.03}},
     "config field 'numeric.step'"),
    ("discrete value and matrix", {"kind": "discrete", "system": {
        "matrix": [[2, 0], [0, 0.5]], "forcing": {"type": "zero", "value": [1]}}},
     "config field 'system.forcing.value'"),
    ("delay value and unstable matrix", {"kind": "delay", "system": {
        "matrix": [[1, 0], [0, -1]], "forcing": {"type": "constant", "value": [1e308, 1e308]}}},
     "config field 'system.forcing.value'"),
]


@pytest.mark.parametrize("case, inputs, named", BAD_INPUTS, ids=[c[0] for c in BAD_INPUTS])
def test_bad_input_exits_two_naming_it(tmp_path, capsys, case, inputs, named):
    out = tmp_path / "out"
    out_is_a_file = "output.dir" in named or "--out-dir" in named
    if out_is_a_file:
        out.write_text("not a directory\n")
    if inputs == "nan-sample":
        path = nan_sample_csv(tmp_path / "wave.csv")
        code, streams = run(["detect", path, "--out-dir", out], capsys)
        assert "wave.csv" in streams.err
    elif isinstance(inputs, tuple):
        make_csv, *flags = inputs
        code, streams = run(["detect", make_csv(tmp_path), *flags, "--out-dir", out], capsys)
    elif isinstance(inputs, list):
        code, streams = run(["reproduce", *inputs, "--out-dir", out], capsys)
    else:
        if isinstance(inputs, dict):
            inputs = {**inputs, "output": {**inputs.get("output", {}), "dir": str(out)}}
        else:
            inputs = inputs[:-1] + f', "output": {{"dir": {json.dumps(str(out))}}}}}'
        code, streams = run(["run", write_config(tmp_path / "cfg.json", inputs)], capsys)
    assert code == 2
    assert named in streams.err
    assert not any(line.startswith("error: ") for line in streams.err.splitlines())
    # a refused input leaves no output directory, and a file in its place as it was
    assert out.read_text() == "not a directory\n" if out_is_a_file else not out.exists()


def test_delay_window_far_from_zero_still_runs(tmp_path, capsys):
    # at 1e6 the step divides the run and the grid times are distinct doubles: the
    # outputs keep the bytes they had before farther windows were refused
    cfg = write_config(tmp_path / "cfg.json", {
        "kind": "delay", "system": {"forcing": {"type": "zero"}},
        "numeric": {"window": [1e6, 1000020]}, "output": {"dir": str(tmp_path)}})
    assert run(["run", cfg], capsys)[0] == 0
    digests = {name: hashlib.sha256((tmp_path / f"delay_{name}").read_bytes()).hexdigest()
               for name in ("solution.csv", "report.json")}
    assert digests == {
        "solution.csv": "0a190cc55a3daf1aab3f2fbd81d4e5ce8ae38b32aed3f551e2f86a26d7ef23bc",
        "report.json": "81ca1f2648378c3e539ac7546f7d13d4a4e01206c3dfd08e842c5463ff44b478"}


def test_huge_delay_with_zero_forcing_fails_the_margin_check(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", {
        "kind": "delay", "system": {"forcing": {"type": "zero"}, "tau": 1e300},
        "output": {"dir": str(tmp_path)}})
    code, streams = run(["run", cfg], capsys)
    assert code == 1
    assert "failing checks: contraction_margin" in streams.err
    checks = json.loads((tmp_path / "delay_report.json").read_text())["checks"]
    margin = next(c for c in checks if c["name"] == "contraction_margin")
    assert margin["status"] == "fail" and margin["values"]["A3_margin"] == "-inf"


def test_failing_check_names_its_value_and_tolerance(tmp_path, capsys):
    # D6's matrix: its certificate's N = 100 makes the A3 margin negative
    cfg = write_config(tmp_path / "cfg.json", {
        "kind": "delay", "system": {"forcing": {"type": "zero"},
                                    "matrix": [[-0.1, 1.0], [0.0, -0.1]]},
        "output": {"dir": str(tmp_path)}})
    code, streams = run(["run", cfg], capsys)
    assert code == 1
    checks = json.loads((tmp_path / "delay_report.json").read_text())["checks"]
    margin = next(c for c in checks if c["name"] == "contraction_margin")["values"]["A3_margin"]
    assert margin < -5.0
    assert f"delay: failing checks: contraction_margin (A3_margin={margin}; positive 0.0)\n" \
        == streams.err


def test_margin_a_few_ulps_from_zero_fails_the_margin_check(tmp_path, capsys):
    # 1 - |B| - L is 5.6e-17 here, but 1 - (|B| + L) is 0
    cfg = write_config(tmp_path / "cfg.json", {
        "kind": "discrete", "system": {"matrix": [[0.7999999999999999, 0], [0, 0]],
                                       "forcing": {"type": "zero"}},
        "output": {"dir": str(tmp_path)}})
    code, streams = run(["run", cfg], capsys)
    assert code == 1
    assert "failing checks: contraction_margin" in streams.err
    checks = json.loads((tmp_path / "discrete_report.json").read_text())["checks"]
    margin = next(c for c in checks if c["name"] == "contraction_margin")
    assert margin["status"] == "fail" and margin["values"]["B3_margin"] == 0.0


def test_rejection_names_every_foreign_flag_and_what_the_demo_takes(tmp_path, capsys):
    code, streams = run(["reproduce", "6.4", "--step", "7", "--horizon", "3",
                         "--out-dir", tmp_path], capsys)
    assert code == 2
    assert "--horizon, --step: not an input" in streams.err
    assert "which takes --seed --tol" in streams.err


def test_detect_echoes_its_own_defaults(tmp_path, capsys):
    path = tmp_path / "wave.csv"
    times = 0.05 * np.arange(800)
    write_function_csv(path, times, np.sin(times)[:, None])
    assert cli.build_parser().parse_args(["detect", str(path)]).epsilon0 is None
    code, _ = run(["detect", path, "--out-dir", tmp_path / "out"], capsys)
    assert code == 0
    echo = json.loads((tmp_path / "out" / "wave_evidence_report.json").read_text())["config_echo"]
    assert (echo["epsilon0"], echo["delta"], echo["min_shift"]) == (0.3, 0.2, 1.0)


def test_detect_config_honours_output_prefix(tmp_path, capsys):
    path = tmp_path / "wave.csv"
    times = 0.05 * np.arange(800)
    write_function_csv(path, times, np.sin(times)[:, None])
    cfg = write_config(tmp_path / "d.json", {"kind": "detect", "input_csv": str(path),
                                             "output": {"dir": str(tmp_path), "prefix": "p"}})
    assert run(["run", cfg], capsys)[0] == 0
    assert (tmp_path / "p_report.json").exists()


def test_help_and_docstring_list_each_entry_from_the_table(capsys):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["reproduce", "--help"])
    lines = capsys.readouterr().out.splitlines()
    for key in catalog.EXAMPLE_IDS:
        flags = [i.flag for i in cli.DEMOS[key].inputs.values() if i.flag]
        line = next(line for line in lines if line.split()[:1] == [key])
        assert line.split(": ", 1)[1].split() == flags
    for key, demo in cli.DEMOS.items():
        assert all(i.field in cli.__doc__ for i in demo.inputs.values() if i.field)
        assert demo.title in cli.__doc__


def test_parser_takes_each_flag_from_the_table():
    parser = cli.build_parser()
    for key, demo in cli.DEMOS.items():
        head = ["detect", "wave.csv"] if key == "detect" else ["reproduce", key]
        for kw, spec in demo.inputs.items():
            if spec.flag and spec.flag.startswith("--"):
                assert vars(parser.parse_args([*head, spec.flag, "3"]))[kw] == 3.0


def test_detect_help_states_each_default(capsys):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["detect", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for flag, default in (("--delta", 0.2), ("--window", 20), ("--min-shift", 1.0)):
        assert f"(default {default})" in text.rsplit(f"{flag} ", 1)[1].split(" --", 1)[0], flag


def test_cli_declares_no_flag_outside_the_table():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    build = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "build_parser")
    literals = [arg.value for call in ast.walk(build) if isinstance(call, ast.Call)
                and getattr(call.func, "attr", None) == "add_argument"
                for arg in call.args if isinstance(arg, ast.Constant)]
    assert [s for s in literals if isinstance(s, str) and s.startswith("--")] == ["--out-dir"]
    names = {getattr(node, "name", None) or getattr(node, "id", None) for node in ast.walk(tree)}
    assert "InputError" not in names


def test_cli_builds_every_check_through_the_report_builders():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    called = [ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert [f for f in called if f.split(".")[0] == "CheckRecord"] == []


SEED = 0.37
ONE_PATH = [
    ("6.1", [], {"kind": "construct", "numeric": {"variant": "function"}}),
    ("6.2", ["--horizon", "2000"], {"kind": "construct", "source": {"horizon": 2000}}),
    ("6.3", [], {"kind": "delay"}),
    ("6.4", [], {"kind": "discrete"}),
]


@pytest.mark.parametrize("example, flags, config", ONE_PATH, ids=[c[0] for c in ONE_PATH])
def test_reproduce_and_run_take_one_path(tmp_path, capsys, example, flags, config):
    by_flags, by_config = tmp_path / "reproduce", tmp_path / "run"
    assert run(["reproduce", example, "--seed", SEED, *flags, "--out-dir", by_flags],
               capsys)[0] == 0
    config = {**config, "source": {**config.get("source", {}), "seed": SEED},
              "output": {"dir": str(by_config), "prefix": example}}
    assert run(["run", write_config(tmp_path / "cfg.json", config)], capsys)[0] == 0

    names = sorted(p.name for p in by_flags.iterdir())
    assert names == sorted(p.name for p in by_config.iterdir())
    for name in names:
        if name.endswith(".csv"):
            assert (by_flags / name).read_bytes() == (by_config / name).read_bytes(), name
    reports = [json.loads((d / f"{example}_report.json").read_text())
               for d in (by_flags, by_config)]
    for part in ("checks", "evidence", "timings"):
        assert reports[0][part] == reports[1][part], part


ODD = st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf, 1e13, 1e300, 2000.7, 1.5])
PLAIN = {
    "--seed": st.floats(0.01, 0.99),
    "--horizon": st.integers(1, 3000).map(float),
    "--step": st.sampled_from([0.05, 0.03, 0.2 / 32]),
    "--tol": st.floats(1e-12, 1e-3),
}


@st.composite
def reproduce_argv(draw):
    """A cheap demo and some of its flags, a foreign flag in one case in four, and one
    value in four odd, so that runs and rejections are both common."""
    example = draw(st.sampled_from(["6.2", "6.4"]))
    own = [i.flag for i in cli.DEMOS[example].inputs.values() if i.flag]
    chosen = draw(st.sets(st.sampled_from(own)))
    if draw(st.integers(0, 3)) == 0:
        chosen.add(draw(st.sampled_from(sorted(PLAIN))))
    if example == "6.2":
        chosen.add("--horizon")   # the default 10**6 would make accepted runs slow
    return example, {flag: draw(ODD if draw(st.integers(0, 3)) == 0 else PLAIN[flag])
                     for flag in sorted(chosen)}


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(reproduce_argv())
def test_reproduce_fuzz_reports_or_names_the_flag(capsys, case):
    example, flags = case
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        argv = ["reproduce", example, "--out-dir", str(out)]
        argv += [f"{flag}={value!r}" for flag, value in flags.items()]
        code = cli.main(argv)
        err = capsys.readouterr().err
        report = out / f"{example}_report.json"
        if code == 2:
            assert any(flag in err for flag in flags), err
            assert not report.exists()
        else:
            assert code in (0, 1)
            echo = json.loads(report.read_text())["config_echo"]
            expected = {name: flags.get(f"--{name}") for name in ("seed", "horizon", "step", "tol")}
            assert echo == {"example": example, **expected}


# cheap configs of five entries of the table; "SEQ" stands for a small sequence CSV
CHEAP = {
    "6.2": {"kind": "construct", "source": {"horizon": 2000}},
    "6.4": {"kind": "discrete"},
    "delay": {"kind": "delay", "system": {"forcing": {"type": "zero"}}},
    "discrete": {"kind": "discrete", "system": {"forcing": {"type": "zero"}}},
    "detect": {"kind": "detect", "input_csv": "SEQ"},
}
OBJECTS = sorted({field.rsplit(".", 1)[0] for field in cli.FIELDS if "." in field})
LEAVES = sorted(cli.FIELDS - {"output.dir"}) + ["zz"] + [f"{o}.zz" for o in OBJECTS]
# 1x1 and 3x3, unstable, exp(A h) past the float range, spectral radius near 1, and a
# delay burn-in past the float range
ODD_MATRICES = [[[-1.0]], (-np.eye(3)).tolist(), [[0.1, 0], [0, -1]],
                [[-1e200, 1e200], [-1e200, -1e200]], [[0.9999999, 0], [0, 0]],
                [[-1e-300, 0], [0, -1e-300]]]
ODD_VALUES = [0, -1, 1.5, 3, 2000.7, 1e300, 1.7e308, 1e-307, 5e-324, -0.0, 10 ** 400,
              math.nan, math.inf, -math.inf, True, False, None,
              "x", "", "tanh", "zero", "sequence", "constant",
              [], [1], [0, 1], [1, 2, 3], [[1]], [[1, 0], [0]], ["a", "b"], {}, {"a": 1},
              *ODD_MATRICES]


@st.composite
def odd_config(draw):
    """A cheap config with one or two leaves set to odd values: table fields or unknown
    keys, the fields of the config's own entry in one draw of two."""
    key = draw(st.sampled_from(sorted(CHEAP)))
    config = json.loads(json.dumps(CHEAP[key]))
    own = sorted(i.field for i in cli.DEMOS[key].inputs.values() if i.field)
    leaf = st.one_of(st.sampled_from(own), st.sampled_from(LEAVES))
    paths = draw(st.lists(leaf, min_size=1, max_size=2, unique=True))
    for path in paths:
        *objects, key = path.split(".")
        node = config
        for name in objects:
            node = node.setdefault(name, {})
        node[key] = draw(st.sampled_from(ODD_VALUES))
    return config, paths


def matrix_examples(test):
    """Each odd matrix in the delay and discrete system configs, as explicit examples:
    the draws put one there only now and then."""
    for key in ("delay", "discrete"):
        for matrix in ODD_MATRICES:
            config = {**CHEAP[key], "system": {**CHEAP[key]["system"], "matrix": matrix}}
            test = example((config, ["system.matrix"]))(test)
    return test


def subnormal_seed(seed, burn_in):
    """6.2 from a subnormal logistic seed: the draws set both fields only now and then."""
    source = {**CHEAP["6.2"]["source"], "seed": seed, "burn_in": burn_in}
    return {**CHEAP["6.2"], "source": source}, ["source.seed", "source.burn_in"]


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@matrix_examples
@example(subnormal_seed(5e-324, 0))
@example(subnormal_seed(1e-310, 3))
@given(odd_config())
def test_config_fuzz_reports_or_names_the_field(capsys, case):
    config, paths = case
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        if config.get("input_csv") == "SEQ":
            config["input_csv"] = str(sequence_csv(Path(tmp)))
        config.setdefault("output", {})["dir"] = str(out)
        code = cli.main(["run", str(write_config(Path(tmp) / "cfg.json", config))])
        err = capsys.readouterr().err
        reports = list(out.glob("*_report.json")) if out.exists() else []
        if code == 2:
            # the field, or an object holding it; an unreadable CSV is named by its path
            named = {".".join(p.split(".")[:n]) for p in paths for n in range(1, p.count(".") + 2)}
            assert any(f"config field '{name}'" in err for name in named) or (
                "input_csv" in paths and "cannot read series" in err
                and str(config["input_csv"]) in err), (paths, err)
            assert not reports
        else:
            assert code in (0, 1), err
            assert reports
