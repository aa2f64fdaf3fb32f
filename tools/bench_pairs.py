"""Compare the benchmark's end-to-end metrics between two checkouts in alternating pairs of runs.

Usage: python tools/bench_pairs.py OTHER_CHECKOUT --workload W [--pairs N] [--seconds S] [--seed K]

Pair k runs ``bench/run.py --workload W --seed K+k --seconds S --trace 0``
in OTHER_CHECKOUT (the parent) and in this checkout (the change), one run
at a time, the parent first in even pairs and the change first in odd
ones, so both sides of a pair see the same seed and nearly the same host
load, and neither side always runs first.  For each end-to-end metric that ``BENCHMARK.json``
declares, the report gives the parent's and the change's median with
their quartiles, the ratio of the medians (change over parent) and in how
many pairs the change was ahead, in the metric's direction.  The exit
status is 1 when any run exits non-zero, reports ``failed > 0`` or prints
no result, else 0.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent


def _run(checkout: Path, workload: str, seed: int, seconds: float):
    """(exit status, the run's result object or None) of one benchmark run in checkout."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return proc.returncode, None


def quartiles(values) -> tuple:
    """(first quartile, median, third quartile) of values, inclusive of the extremes."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=Path, help="the other checkout (the parent)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair; pair k uses seed + k")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    metrics = json.loads((HERE / "BENCHMARK.json").read_text())["end_to_end"]

    status, results = 0, []  # per pair, the parent's and the change's metrics ({} for a run with no result)
    for k in range(args.pairs):
        seed, pair = args.seed + k, {}
        sides = [("parent", args.other.resolve()), ("change", HERE)]
        for side, checkout in sides if k % 2 == 0 else sides[::-1]:
            code, result = _run(checkout, args.workload, seed, args.seconds)
            if code != 0 or result is None or result.get("failed", 1) > 0:
                status = 1
                failed = "no result" if result is None else f"failed {result.get('failed')}"
                print(f"pair {k + 1}, seed {seed}, {side}: exit {code}, {failed}", flush=True)
            pair[side] = (result or {}).get("metrics", {})
        results.append((pair["parent"], pair["change"]))
        print(f"pair {k + 1} of {args.pairs} done (seed {seed})", flush=True)

    print(f"workload {args.workload}: {args.pairs} pairs of {args.seconds:g} s runs, seeds from {args.seed}")
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        pairs = [(p[name]["value"], c[name]["value"]) for p, c in results if name in p and name in c]
        if not pairs:
            print(f"  {name}: no paired values")
            continue
        parent, change = quartiles([p for p, _ in pairs]), quartiles([c for _, c in pairs])
        ahead = sum((c < p) if lower else (c > p) for p, c in pairs)
        ratio = f"{change[1] / parent[1]:.4f}" if parent[1] else "n/a"
        print(
            f"  {name} ({metric['unit']}, {metric['better']} is better):"
            f" parent {parent[1]:.6g} [IQR {parent[0]:.6g}-{parent[2]:.6g}],"
            f" change {change[1]:.6g} [IQR {change[0]:.6g}-{change[2]:.6g}],"
            f" ratio {ratio}, change ahead in {ahead} of {len(pairs)}"
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
