"""Report how far every preset's frames moved between two checkouts.

Usage: python tools/preset_roundoff.py OTHER_CHECKOUT [--only COL[,COL...]]

Each preset runs at its full horizon in this checkout and in OTHER_CHECKOUT
(a directory holding another version's ``src/``), each run in a subprocess
on one OpenBLAS thread.  For each preset the report gives the largest
relative difference in every frame column, by bench/verify.py's rule:
|this - other| over the larger of |other| and the largest |value| of that
column in the other run.  NaN must meet NaN.  The preset's line also says
whether any bound-check verdict changed, and names the summary JSON keys
(dotted paths into nested objects) whose values differ, ``wall_time``
left out.  With ``--only``, the line also names the columns outside the
list that moved, or says none did.  The exit status is 1 when any verdict
changed, any preset's frame tables differ in shape, or a column outside
``--only`` moved, else 0.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent

# run in the checkout's interpreter: one preset, printed as JSON
_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from flocklab.config import preset_config
from flocklab.runner import run
result = run(preset_config(sys.argv[2]))
checks = {c.name: c.passed for c in result.summary.bound_checks}
summary = json.loads(result.summary.to_json())
json.dump({"csv": result.csv(), "checks": checks, "summary": summary}, sys.stdout)
"""


def _run(checkout: Path, preset: str) -> dict:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, str(checkout / "src"), preset],
        env=env, check=True, capture_output=True, text=True,
    )
    return json.loads(out.stdout)


def _table(csv_text: str):
    lines = csv_text.splitlines()
    names = lines[0].removeprefix("# columns: ").split(",")
    return names, [[float(v) for v in line.split(",")] for line in lines[1:]]


def column_roundoff(this_csv: str, other_csv: str) -> dict:
    """Largest relative difference per column; NaN where NaN meets a number."""
    names, this = _table(this_csv)
    other_names, other = _table(other_csv)
    if names != other_names or len(this) != len(other):
        raise ValueError("columns or frame count differ")
    worst = {}
    for col, name in enumerate(names):
        scale = max((abs(r[col]) for r in other if not math.isnan(r[col])), default=0.0)
        worst[name] = 0.0
        for a, b in ((r[col], s[col]) for r, s in zip(this, other)):
            if math.isnan(a) or math.isnan(b):
                if math.isnan(a) != math.isnan(b):
                    worst[name] = math.nan
            elif a != b and not math.isnan(worst[name]):
                # a column that is all zero in the other run has no scale: any change is infinite
                worst[name] = max(worst[name], abs(a - b) / scale if scale else math.inf)
    return worst


def summary_changes(this: dict, other: dict, prefix: str = "") -> list:
    """Dotted keys of the values that differ between two summaries, ``wall_time`` left out."""
    changed = []
    for key in sorted(this.keys() | other.keys()):
        path = prefix + key
        a, b = this.get(key), other.get(key)
        if path == "wall_time":
            continue
        if isinstance(a, dict) and isinstance(b, dict):
            changed += summary_changes(a, b, path + ".")
        elif key not in this or key not in other or json.dumps(a) != json.dumps(b):  # NaN meets NaN
            changed.append(path)
    return changed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=Path, help="the other checkout")
    parser.add_argument("--only", type=lambda text: set(text.split(",")), metavar="COL[,COL...]",
                        help="the frame columns that may move; exit 1 when another one moved")
    args = parser.parse_args(argv)
    other = args.other.resolve()
    sys.path.insert(0, str(HERE / "src"))
    from flocklab.config import preset_names

    status = 0
    for preset in preset_names():
        with ThreadPoolExecutor(max_workers=2) as pool:
            mine, theirs = pool.map(lambda root: _run(root, preset), (HERE, other))
        changed = sorted(
            name for name in mine["checks"].keys() | theirs["checks"].keys()
            if mine["checks"].get(name) != theirs["checks"].get(name)
        )
        if changed:
            status = 1
        changes = f"verdicts changed: {', '.join(changed) or 'none'}; summary changed: " + (
            ", ".join(summary_changes(mine["summary"], theirs["summary"])) or "none"
        )
        try:
            worst = column_roundoff(mine["csv"], theirs["csv"])
        except ValueError as exc:
            status = 1
            print(f"{preset}: {exc}; {changes}", flush=True)
            continue
        largest = max(worst.values(), key=lambda v: math.inf if math.isnan(v) else v, default=0.0)
        if args.only is not None:
            moved = [name for name, value in worst.items() if value != 0.0 and name not in args.only]
            status = 1 if moved else status
            changes += f"; moved outside --only: {', '.join(moved) or 'none'}"
        print(
            f"{preset}: largest {largest:.3g}; {changes}\n  "
            + " ".join(f"{name}={value:.2g}" for name, value in worst.items()),
            flush=True,
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
