"""flocklab benchmark: end-to-end and per-layer timings of four workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload particles-pairpass --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --all --seconds 30 --out bench/baseline/BENCH_seed.json

One operation is the work ``flocklab simulate`` does, kept in memory:
``runner.run(cfg)``, then ``RunResult.csv()`` and ``RunSummary.to_json()``.
Operations run one after another in a closed loop with one client, in
whole cycles of the workload's templates, and every one is verified.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from a separate traced run plus each layer timed on its
own.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 1
if any operation failed verification.  See bench/README.md.
"""

import os

# pinned before numpy can be imported, here or in a child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def _use_checkout_source():
    """Put this checkout's src/ and the benchmark's modules first on the import path."""
    if not (SRC / "flocklab" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'flocklab'} not found; run the benchmark from a flocklab checkout")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]


def _check_flocklab_origin():
    import flocklab

    if Path(flocklab.__file__).resolve().parent != SRC / "flocklab":
        sys.exit(f"error: imported flocklab from {flocklab.__file__}, not from {SRC}")


def setup_child():
    """Time one cold set-up in this fresh process: the config texts arrive on stdin."""
    texts = json.loads(sys.stdin.read())
    started = time.perf_counter()
    from workloads import set_up  # imports flocklab, and numpy with it

    for text in texts:
        set_up(text)
    elapsed = time.perf_counter() - started
    _check_flocklab_origin()
    print(repr(elapsed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="workload name (see bench/README.md)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--seconds", type=float, default=30.0, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics from a traced run")
    parser.add_argument("--all", action="store_true", help="run every workload, traced and untraced")
    parser.add_argument("--out", type=Path, help="BENCH file written by --all (default .bench_out/BENCH_latest.json)")
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate the committed reference frames")
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _use_checkout_source()
    if args.setup_child:
        setup_child()
        return 0
    _check_flocklab_origin()
    import harness

    if args.write_reference:
        return harness.write_reference()
    if args.all:
        return harness.run_all(args.seed, args.seconds, args.out or harness.OUT_DIR / "BENCH_latest.json")
    if args.workload not in harness.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(harness.WORKLOADS)}")
    return harness.run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
