"""Run a fixed set of ``updyn`` commands per seed; print each exit code and output sha256.

Usage: ``python tools/output_hashes.py SEED...``.  It imports ``updyn`` from
the ``src`` next to this file.  For each logistic seed it runs, in a fresh
temporary directory and each into its own output directory:

- ``reproduce 6.1`` to ``6.4``;
- the benchmark's discrete ``run`` config (window 4000-44000);
- ``detect`` on that config's φ orbit CSV, on ``6.1_phi.csv``, on
  ``6.3_psi_solution.csv`` (whose separations take the grid scan's intervals)
  and on ``6.4_phi_orbit.csv``;
- zero- and constant-forcing delay and discrete ``run`` configs, and one of
  each whose contraction margin fails;
- a discrete ``run`` config whose orbit stays near 1e-290, so that every value
  of its CSV goes through ``%`` rather than the writer's numpy kernel.

Two checkouts write the same outputs when the two printouts ``diff`` clean; an
invocation that raises prints the exception's type in place of its exit code.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from updyn import cli  # noqa: E402

# config name -> config; the output directory is added per run
SYSTEM_CONFIGS = {
    "delay-zero": {"kind": "delay", "system": {"forcing": {"type": "zero"}},
                   "numeric": {"window": [0, 20]}},
    "delay-constant": {"kind": "delay",
                       "system": {"forcing": {"type": "constant", "value": [0.5, -0.25]}},
                       "numeric": {"window": [0, 20]}},
    # a non-normal matrix whose A3 margin fails: no solution is simulated
    "delay-margin-fails": {"kind": "delay",
                           "system": {"forcing": {"type": "zero"},
                                      "matrix": [[-0.1, 1.0], [0.0, -0.1]]},
                           "numeric": {"window": [0, 20]}},
    "discrete-zero": {"kind": "discrete", "system": {"forcing": {"type": "zero"}}},
    "discrete-constant": {"kind": "discrete",
                          "system": {"forcing": {"type": "constant", "value": [0.3, -0.2]}},
                          "numeric": {"window": [100, 700]}},
    # no nonlinearity and a forcing near 1e-290: CSV values past the kernel's table
    "discrete-tiny": {"kind": "discrete",
                      "system": {"nonlinearity": {"type": "zero"},
                                 "forcing": {"type": "constant", "value": [1e-290, -3e-291]}},
                      "numeric": {"window": [100, 700]}},
    # |B| = 1.2: the B3 margin and the spectral norm fail, and no orbit is computed
    "discrete-margin-fails": {"kind": "discrete",
                              "system": {"forcing": {"type": "zero"},
                                         "matrix": [[1.2, 0.0], [0.0, 0.1]]}},
}


def invocations(seed: str, workdir: Path) -> list[tuple[str, list[str]]]:
    """(output directory, argv) of each command, in the order they must run."""
    configs = {"discrete-bench": {"kind": "discrete", "source": {"seed": float(seed)},
                                  "system": {"forcing": {"type": "construct"}},
                                  "numeric": {"window": [4000, 44000]}},
               **SYSTEM_CONFIGS}
    runs = [(ex, ["reproduce", ex, "--seed", seed, "--out-dir", ex])
            for ex in ("6.1", "6.2", "6.3", "6.4")]
    for name, config in configs.items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps({**config, "output": {"dir": name}}), encoding="utf-8")
        runs.append((name, ["run", path.name]))
    for out, csv in (("detect-bench", "discrete-bench/discrete_phi_orbit.csv"),
                     ("detect-6.1", "6.1/6.1_phi.csv"),
                     ("detect-6.3", "6.3/6.3_psi_solution.csv"),
                     ("detect-6.4", "6.4/6.4_phi_orbit.csv")):
        runs.append((out, ["detect", csv, "--out-dir", out]))
    return runs


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main(seeds: list[str]) -> int:
    if not seeds:
        print("usage: python tools/output_hashes.py SEED...", file=sys.stderr)
        return 2
    home = os.getcwd()
    for seed in seeds:
        with tempfile.TemporaryDirectory(prefix="updyn-hashes-") as tmp:
            os.chdir(tmp)
            try:
                for out, argv in invocations(seed, Path(tmp)):
                    try:
                        with contextlib.redirect_stderr(io.StringIO()):
                            code = f"exit {cli.main(argv)}"
                    except Exception as exc:  # a traceback is an outcome to compare too
                        code = f"raised {type(exc).__name__}"
                    print(f"{seed} {code}: updyn {' '.join(argv)}")
                    for path in sorted(Path(out).glob("*")) if Path(out).is_dir() else ():
                        print(f"{seed} {sha256(path)}  {path}")
            finally:
                os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
