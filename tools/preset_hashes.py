"""Print the SHA-256 of every preset's frames CSV and summary JSON.

Usage: python tools/preset_hashes.py

Each preset runs at its full horizon on one OpenBLAS thread.  One line per
preset: its name, the hash of the frames CSV and the hash of the summary
JSON with ``wall_time`` set to 0, the only field that varies between runs.
Two checkouts that print the same lines wrote the same bytes.
"""

import hashlib
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads OpenBLAS
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from flocklab.config import preset_config, preset_names  # noqa: E402
from flocklab.runner import run  # noqa: E402


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main() -> None:
    for name in preset_names():
        result = run(preset_config(name))
        result.summary.wall_time = 0.0
        print(f"{name} frames {_sha256(result.csv())} summary {_sha256(result.summary.to_json())}", flush=True)


if __name__ == "__main__":
    main()
