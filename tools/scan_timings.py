"""Time ``diagnostics.pair_scan`` in this checkout and another, interleaved, in separate processes.

Usage: python tools/scan_timings.py OTHER_CHECKOUT [--rounds R] [--number K]

Each checkout gets one worker process that imports its own ``src`` with
OPENBLAS_NUM_THREADS=1 and builds the same states: N in {1, 64, 128, 256,
512} and d in {1, 2}, Gaussian positions and velocities, masses in
[0.1, 1], fluctuation weight a = 0.8, scanned without and with the cross
form (K, beta) = (2, 1).  In every round each worker times K calls per
case, OTHER_CHECKOUT first in even rounds and this checkout first in odd
ones, so both see nearly the same host load.  The table gives each case's
best time per call over the rounds, in microseconds, for OTHER_CHECKOUT
(the parent) and this checkout (the change), and the ratio change /
parent.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
CASES = [(n, d, cross) for d in (1, 2) for n in (1, 64, 128, 256, 512) for cross in (False, True)]

_WORKER = """
import json, sys, timeit
import numpy as np
from flocklab.diagnostics import pair_scan
from flocklab.dynamics import Ensemble
cases = []
for n, d, cross in json.loads(sys.argv[1]):
    rng = np.random.default_rng(1000 * n + d)
    ens = Ensemble(x=rng.normal(size=(n, d)), u=rng.normal(size=(n, d)), m=rng.uniform(0.1, 1.0, n))
    args = (ens, 0.8, 2.0, 1.0) if cross else (ens, 0.8)
    pair_scan(*args)
    cases.append(args)
for line in sys.stdin:
    number = int(line)
    times = [timeit.Timer(lambda: pair_scan(*args)).timeit(number) / number * 1e6 for args in cases]
    print(json.dumps(times), flush=True)
"""


class Worker:
    """One checkout's timing process; ``round(number)`` gives its microseconds per call, case by case."""

    def __init__(self, checkout: Path):
        src = str(checkout / "src")
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
        argv = [sys.executable, "-c", _WORKER, json.dumps(CASES)]
        self.proc = subprocess.Popen(argv, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def round(self, number: int) -> list:
        self.proc.stdin.write(f"{number}\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=Path, help="the other checkout (the parent)")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--number", type=int, default=50, help="calls per case and round")
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.number < 1:
        parser.error("--rounds and --number must be at least 1")
    workers = {"parent": Worker(args.other.resolve()), "change": Worker(HERE)}
    best = {side: [float("inf")] * len(CASES) for side in workers}
    try:
        for k in range(args.rounds):
            for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                best[side] = [min(b, t) for b, t in zip(best[side], workers[side].round(args.number))]
    finally:
        for worker in workers.values():
            worker.close()
    print(f"pair_scan, best of {args.rounds} rounds of {args.number} calls, us per call, one BLAS thread")
    print(f"{'N':>5} {'d':>2} {'cross':>5} {'parent':>9} {'change':>9} {'ratio':>7}")
    for (n, d, cross), old, new in zip(CASES, best["parent"], best["change"]):
        print(f"{n:>5} {d:>2} {'yes' if cross else 'no':>5} {old:>9.1f} {new:>9.1f} {new / old:>7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
