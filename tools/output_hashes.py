"""Print the byte oracle's lines for each seed: every exit code and output sha256.

Usage: ``python tools/output_hashes.py SEED...``.  It imports ``updyn`` from
the ``src`` next to this file; ``byte_oracle`` lists the commands it runs.
Two checkouts write the same outputs when the two printouts ``diff`` clean.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from byte_oracle import printout  # noqa: E402


def main(seeds: list[str]) -> int:
    if not seeds:
        print("usage: python tools/output_hashes.py SEED...", file=sys.stderr)
        return 2
    for seed in seeds:
        print("\n".join(printout(seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
