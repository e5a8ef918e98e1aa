"""The byte oracle's printout at seed 0.41 is pinned: every exit code and output sha256.

A change that moves an output on purpose updates ``data/byte_oracle_0.41.txt``
(``python tools/output_hashes.py 0.41``) and lists the moved files.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from byte_oracle import printout  # noqa: E402

PINNED = ROOT / "tests" / "data" / "byte_oracle_0.41.txt"


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


def test_every_output_matches_the_pinned_printout():
    pinned = outcomes(PINNED.read_text(encoding="utf-8").splitlines())
    now = outcomes(printout("0.41"))
    moved = [f"{key}: {pinned.get(key, 'absent')} -> {now.get(key, 'absent')}"
             for key in {**pinned, **now} if pinned.get(key) != now.get(key)]
    assert not moved, "moved since the pinned printout:\n" + "\n".join(moved)
