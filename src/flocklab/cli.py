"""Command-line interface.

Subcommands: simulate, classify, constants, sweep, check.  A config
argument is a file path or a preset name.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
from dataclasses import asdict

from .config import ConfigError, preset_names, resolve_config
from .runner import MAX_GRID_POINTS, analyze, classify, run, sweep, sweep_csv


def _parse_axis(spec: str):
    # key=lo:hi:n, inclusive endpoints
    try:
        key, _, grid = spec.partition("=")
        lo_s, hi_s, n_s = grid.split(":")
        lo, hi, count = float(lo_s), float(hi_s), int(n_s)
    except ValueError:
        raise ConfigError(f"axis must look like key=lo:hi:n, got {spec!r}") from None
    if not 1 <= count <= MAX_GRID_POINTS:
        raise ConfigError(f"axis point count must be in [1, {MAX_GRID_POINTS}], got {count}")
    step = (hi - lo) / max(count - 1, 1)
    # the last point is hi itself, which lo + (n - 1) step can miss by an ulp
    return key, [lo + i * step for i in range(count - 1)] + [hi if count > 1 else lo]


def cmd_simulate(args) -> int:
    cfg = resolve_config(args.config)
    if args.out:  # before the run, so an unwritable --out costs no integration
        os.makedirs(args.out, exist_ok=True)
    result = run(cfg)
    if args.out:
        with open(os.path.join(args.out, "frames.csv"), "w", encoding="utf-8") as fh:
            fh.write(result.csv())
        with open(os.path.join(args.out, "summary.json"), "w", encoding="utf-8") as fh:
            fh.write(result.summary.to_json() + "\n")
    print(result.summary.to_json())
    return 0 if result.summary.all_checks_pass else 1


def cmd_classify(args) -> int:
    cfg = resolve_config(args.config)
    report, details = classify(cfg, u_max=args.u_max)
    print(json.dumps({"report": asdict(report), "details": details}, indent=2))
    return 0


def cmd_constants(args) -> int:
    cfg = resolve_config(args.config)
    print(constants_json(cfg))
    return 0


def constants_json(cfg) -> str:
    return analyze(cfg).report.to_json()


def cmd_sweep(args) -> int:
    cfg = resolve_config(args.config)
    axes = [_parse_axis(spec) for spec in args.axis]
    # --out is opened before the grid runs, so an unwritable path costs no point
    with open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(sweep_csv(*sweep(cfg, axes, simulate=args.simulate)))
    return 0


def cmd_check(args) -> int:
    cfg = resolve_config(args.preset)
    result = run(cfg)
    summary = result.summary
    for check in summary.bound_checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.name}: max violation {check.max_violation:.3e}"
              f" (tol {check.tol:.0e})")
    if summary.threshold is not None:
        print(f"threshold verdict: {summary.threshold.verdict}")
    if summary.blowup:
        lo, hi = summary.blowup
        print(f"blow-up bracket: [{lo:.6g}, {hi:.6g}]")
    print(f"wall time: {summary.wall_time:.2f} s, frames: {summary.n_frames}")
    ok = summary.all_checks_pass
    print("RESULT:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main(argv=None) -> int:
    import argparse  # here, not at the top: importing the module for constants_json needs no parser

    parser = argparse.ArgumentParser(
        prog="flocklab",
        description="Alignment dynamics laboratory: simulate, classify thresholds,"
        " evaluate closed-form constants, sweep parameter grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a configuration and print the summary")
    p.add_argument("config", help="config file path or preset name")
    p.add_argument("--out", help="directory for frames.csv and summary.json")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("classify", help="threshold classification of a hydro config")
    p.add_argument("config")
    p.add_argument("--u-max", type=float, default=None, dest="u_max",
                   help="measured velocity bound (otherwise the a-priori bound is used)")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("constants", help="closed-form constants for a config")
    p.add_argument("config")
    p.set_defaults(fn=cmd_constants)

    p = sub.add_parser("sweep", help="classify over a 1- or 2-axis parameter grid")
    p.add_argument("config")
    p.add_argument("--axis", action="append", required=True, metavar="key=lo:hi:n",
                   help="sweep axis, may be given twice")
    p.add_argument("--simulate", action="store_true", help="also simulate each grid point")
    p.add_argument("--out", help="write the sweep CSV here instead of stdout")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("check", help="run an acceptance preset and report pass/fail")
    p.add_argument("preset", help=f"one of: {', '.join(preset_names())}")
    p.set_defaults(fn=cmd_check)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, OSError) as exc:  # an OSError comes from writing --out
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
