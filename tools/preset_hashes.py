"""Print the SHA-256 of every preset's frames CSV, summary JSON and CLI outputs.

Usage: python tools/preset_hashes.py

Each preset runs at its full horizon on one OpenBLAS thread.  One line per
preset: its name, the hash of the frames CSV, the hash of the summary JSON
with ``wall_time`` set to 0, the only field that varies between runs, and
the hashes of what ``flocklab constants`` and ``flocklab classify`` print
for it (``-`` for a particle preset, which has no classification).  Two
checkouts that print the same preset lines wrote the same bytes.  The last
line, ``src lines <N>``, counts the lines of the package's source files, as
``wc -l`` does.
"""

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads OpenBLAS
sys.path.insert(0, str(SRC))

from flocklab.cli import main as cli_main  # noqa: E402
from flocklab.config import preset_config, preset_names  # noqa: E402
from flocklab.runner import run  # noqa: E402


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cli_output(*argv: str) -> str:
    """What ``flocklab ARGV...`` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli_main(list(argv))
    return out.getvalue()


def main() -> None:
    for name in preset_names():
        cfg = preset_config(name)
        result = run(cfg)
        result.summary.wall_time = 0.0
        classify = "-" if cfg.mode == "particles" else _sha256(_cli_output("classify", name))
        print(
            f"{name} frames {_sha256(result.csv())} summary {_sha256(result.summary.to_json())}"
            f" constants {_sha256(_cli_output('constants', name))} classify {classify}",
            flush=True,
        )
    lines = sum(path.read_bytes().count(b"\n") for path in SRC.rglob("*.py"))
    print(f"src lines {lines}")


if __name__ == "__main__":
    main()
