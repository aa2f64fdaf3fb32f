"""Print the SHA-256 of every preset's frames CSV, summary JSON and CLI outputs.

Usage: python tools/preset_hashes.py

Each preset runs at its full horizon on one OpenBLAS thread.  One line per
preset, written by ``tests/golden.py``'s ``preset_line``, the function that
Tier-1 holds against ``tests/golden/presets.txt``: its name, the hash of
the frames CSV, the hash of the summary JSON with ``wall_time`` set to 0,
the only field that varies between runs, and the hashes of what
``flocklab constants`` and ``flocklab classify`` print for it (``-`` for a
particle preset, which has no classification).  Two checkouts that print
the same preset lines wrote the same bytes.  Then ``presets <digest>``
gives the SHA-256 of the preset lines as printed, each with its newline,
so one string tells whether any preset's bytes moved.  The last line,
``src lines <N>``, counts the lines of the package's source files, as
``wc -l`` does.
"""

import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads OpenBLAS
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(ROOT / "tests"))

from flocklab.config import preset_config, preset_names  # noqa: E402
from flocklab.runner import run  # noqa: E402
from golden import preset_line  # noqa: E402


def main() -> None:
    digest = hashlib.sha256()
    for name in preset_names():
        line = preset_line(name, run(preset_config(name)))
        digest.update(f"{line}\n".encode("utf-8"))
        print(line, flush=True)
    print(f"presets {digest.hexdigest()}")
    lines = sum(path.read_bytes().count(b"\n") for path in SRC.rglob("*.py"))
    print(f"src lines {lines}")


if __name__ == "__main__":
    main()
