"""The byte oracle's printouts at seeds 0.41, 0.37 and 0.912345 are pinned: every exit
code and output sha256.

A change that moves an output on purpose updates ``data/byte_oracle_<seed>.txt``
(``python tools/output_hashes.py <seed>``) and lists the moved files.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from byte_oracle import printout  # noqa: E402

DATA = ROOT / "tests" / "data"


def outcomes(lines) -> dict:
    """Each command's exit code and each file's sha256, keyed by the command or the file."""
    found = {}
    for line in lines:
        _, rest = line.split(" ", 1)
        if rest.startswith(("exit ", "raised ")):
            outcome, command = rest.split(": ", 1)
        else:
            outcome, command = rest.split("  ", 1)
        found[command] = outcome
    return found


@pytest.mark.parametrize("seed", ["0.41", "0.37", "0.912345"])
def test_every_output_matches_the_pinned_printout(seed):
    pinned = outcomes((DATA / f"byte_oracle_{seed}.txt").read_text(encoding="utf-8").splitlines())
    now = outcomes(printout(seed))
    moved = [f"{key}: {pinned.get(key, 'absent')} -> {now.get(key, 'absent')}"
             for key in {**pinned, **now} if pinned.get(key) != now.get(key)]
    assert not moved, "moved since the pinned printout:\n" + "\n".join(moved)
