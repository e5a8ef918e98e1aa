"""The byte oracle: a fixed set of ``updyn`` commands per seed, each exit code and output sha256.

``printout(seed)`` runs, in a fresh temporary directory and each into its own
output directory:

- ``reproduce 6.1`` to ``6.4``;
- the benchmark's discrete ``run`` config (window 4000-44000);
- a construct-forced delay ``run`` config at delay 0.05 over [0, 60], whose
  φ and ψ runs take ``integrate_mos``'s lockstep lanes at a longer warm-up
  than 6.3's;
- ``detect`` on that config's φ orbit CSV, on ``6.1_phi.csv``, on
  ``6.3_psi_solution.csv`` (whose separations take the grid scan's intervals)
  and on ``6.4_phi_orbit.csv``;
- zero- and constant-forcing delay and discrete ``run`` configs, and one of
  each whose contraction margin fails;
- a constant-forcing delay ``run`` config on a defective matrix, whose N and
  lambda come from the Lyapunov certificate, with a positive A3 margin;
- a constant-forcing delay ``run`` config over [0, 200], whose single run
  fills most of its delay segments in one round of lanes;
- a slowly contracting discrete ``run`` config, whose lanes start at a long
  warm-up, and a fast one, whose lanes start at a short one;
- a discrete ``run`` config whose first round of lanes is rejected, so that
  its orbit takes a second round at twice the warm-up;
- a discrete ``run`` config whose orbit stays near 1e-290, so that every value
  of its CSV goes through ``%`` rather than the writer's numpy kernel.

It returns one line per command (its exit code, or the type of the exception it
raised) followed by one line per output file (its sha256).  Two checkouts write
the same outputs when their printouts are equal.  ``tools/output_hashes.py``
prints them for any seeds; ``tests/test_byte_oracle.py`` compares the printout
at seed 0.41 with ``tests/data/byte_oracle_0.41.txt``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

from updyn import cli

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
    # a Jordan block: N = 10.1 at lambda = 0.9 by the Lyapunov certificate, A3 margin 0.46
    "delay-certificate": {"kind": "delay",
                          "system": {"matrix": [[-1.0, 1.0], [0.0, -1.0]],
                                     "nonlinearity": {"type": "tanh", "scale": 0.02},
                                     "forcing": {"type": "constant", "value": [0.5, -0.25]}},
                          "numeric": {"window": [0, 20]}},
    "discrete-zero": {"kind": "discrete", "system": {"forcing": {"type": "zero"}}},
    "discrete-constant": {"kind": "discrete",
                          "system": {"forcing": {"type": "constant", "value": [0.3, -0.2]}},
                          "numeric": {"window": [100, 700]}},
    # 1,092 delay segments of one run, 1,024 of them settled by 7 lanes of 128
    "delay-constant-long": {"kind": "delay",
                            "system": {"forcing": {"type": "constant", "value": [0.5, -0.25]}},
                            "numeric": {"window": [0, 200]}},
    # q = 0.95: |B| = 0.85 starts the lanes at a warm-up of 512 rows
    "discrete-slow": {"kind": "discrete",
                      "system": {"matrix": [[0.85, 0.0], [0.0, 0.85]],
                                 "nonlinearity": {"type": "tanh", "scale": 0.1},
                                 "forcing": {"type": "constant", "value": [0.3, -0.2]}},
                      "numeric": {"window": [100, 5100]}},
    # |B| = 0.1 starts the lanes at a warm-up of 32 rows, which settles this orbit
    "discrete-fast": {"kind": "discrete",
                      "system": {"matrix": [[0.1, 0.0], [0.0, 0.1]],
                                 "nonlinearity": {"type": "tanh", "scale": 0.2},
                                 "forcing": {"type": "constant", "value": [0.3, -0.2]}},
                      "numeric": {"window": [100, 5100]}},
    # the steeper tanh rejects 169 of the 170 lanes of 32 rows; lanes of 64 then merge
    "discrete-fast-rejects": {"kind": "discrete",
                              "system": {"matrix": [[0.1, 0.0], [0.0, 0.1]],
                                         "nonlinearity": {"type": "tanh", "scale": 0.85},
                                         "forcing": {"type": "constant",
                                                     "value": [0.3, -0.2]}},
                              "numeric": {"window": [100, 5100]}},
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
               # 1,800 delay segments of 32 steps, in lanes with a warm-up of 512 segments
               "delay-fine": {"kind": "delay", "source": {"seed": float(seed)},
                              "system": {"tau": 0.05, "forcing": {"type": "construct"}},
                              "numeric": {"window": [0, 60]}},
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


def printout(seed: str) -> list[str]:
    """The oracle's lines at one logistic seed, given as the text the CLI takes."""
    lines, home = [], os.getcwd()
    with tempfile.TemporaryDirectory(prefix="updyn-hashes-") as tmp:
        os.chdir(tmp)
        try:
            for out, argv in invocations(seed, Path(tmp)):
                try:
                    with contextlib.redirect_stderr(io.StringIO()):
                        code = f"exit {cli.main(argv)}"
                except Exception as exc:  # a traceback is an outcome to compare too
                    code = f"raised {type(exc).__name__}"
                lines.append(f"{seed} {code}: updyn {' '.join(argv)}")
                for path in sorted(Path(out).glob("*")) if Path(out).is_dir() else ():
                    lines.append(f"{seed} {sha256(path)}  {path}")
        finally:
            os.chdir(home)
    return lines
