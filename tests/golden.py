"""Preset lines and the golden files in ``tests/golden/`` that Tier-1 holds every preset's run against.

A preset's line names it and gives the SHA-256 of its frames CSV, of its
summary JSON with ``wall_time`` set to 0 (the only field that varies
between runs), and of what ``flocklab constants`` and ``flocklab classify``
print for it (``-`` for a particle preset, which has no classification).
``tools/preset_hashes.py`` prints these lines.

``tests/golden/presets.txt`` holds the build that wrote it (numpy's
version, its BLAS build and the CPU features numpy found, which pick
OpenBLAS's kernels), each preset's line and its bound-check verdicts, and
``tests/golden/<preset>.csv.gz`` holds each preset's frames.  On that build
a preset's line must match exactly.  On another build its frames are held
to ``tools/preset_roundoff.py``'s rule instead: the same columns and frame
count, NaN exactly where the golden frames have NaN, and the same verdicts
("verdicts changed: none"), with the largest relative change reported.

A change that moves the bytes on purpose writes the golden files again in
the same commit: ``python tests/golden.py`` runs every preset on one
OpenBLAS thread and rewrites ``tests/golden/``.
"""

import dataclasses
import gzip
import hashlib
import importlib.util
import io
import math
import os
from contextlib import redirect_stdout
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cli_output(*argv: str) -> str:
    """What ``flocklab ARGV...`` prints (through the module, so a stubbed ``cli.main`` applies)."""
    from flocklab import cli

    out = io.StringIO()
    with redirect_stdout(out):
        cli.main(list(argv))
    return out.getvalue()


def build() -> str:
    """numpy's version, its BLAS build and the CPU features numpy found: what the preset bytes rest on."""
    import numpy as np

    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    blas = blas.get("openblas configuration") or f"{blas['name']} {blas['version']}"
    cpu = " ".join(config["SIMD Extensions"]["found"])
    return f"numpy {np.__version__}; {' '.join(blas.split())}; cpu {cpu}"


def preset_line(name: str, result) -> str:
    """The preset's line: its name and the hashes of its frames, summary, constants and classification."""
    from flocklab.config import preset_config

    summary = dataclasses.replace(result.summary, wall_time=0.0)
    particles = preset_config(name).mode == "particles"
    classify = "-" if particles else _sha256(_cli_output("classify", name))
    return (
        f"{name} frames {_sha256(result.csv())} summary {_sha256(summary.to_json())}"
        f" constants {_sha256(_cli_output('constants', name))} classify {classify}"
    )


def verdicts(result) -> dict:
    """Bound check name -> whether it passed."""
    return {check.name: check.passed for check in result.summary.bound_checks}


@dataclasses.dataclass(frozen=True)
class Golden:
    build: str
    lines: dict  # preset -> its line
    verdicts: dict  # preset -> verdicts()


def read() -> Golden:
    """The golden build, lines and verdicts of ``tests/golden/presets.txt``."""
    build_id, lines, passed = None, {}, {}
    for line in (GOLDEN / "presets.txt").read_text().splitlines():
        head, _, rest = line.partition(" ")
        if head == "build":
            build_id = rest
        elif head == "verdicts":
            name, *checks = rest.split()
            passed[name] = {check: state == "pass" for check, _, state in (c.partition("=") for c in checks)}
        elif head != "presets":
            lines[head] = line
    return Golden(build_id, lines, passed)


def golden_frames(name: str) -> str:
    return gzip.decompress((GOLDEN / f"{name}.csv.gz").read_bytes()).decode("utf-8")


def _roundoff_tool():
    spec = importlib.util.spec_from_file_location("preset_roundoff", TOOLS / "preset_roundoff.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def mismatch(name: str, result, golden: Golden, this_build: str):
    """Why the preset's run fails its golden files, or None when it passes.

    On the golden build the line must equal the golden line.  On another build the frames must keep
    the golden columns and frame count, NaN must meet NaN, and no verdict may change.
    """
    if this_build == golden.build:
        line = preset_line(name, result)
        return None if line == golden.lines[name] else f"on the golden build: {line} != {golden.lines[name]}"
    try:
        worst = _roundoff_tool().column_roundoff(result.csv(), golden_frames(name))
    except ValueError as exc:
        return f"on build {this_build}: frames: {exc}"
    mine, theirs = verdicts(result), golden.verdicts[name]
    changed = sorted(check for check in mine.keys() | theirs.keys() if mine.get(check) != theirs.get(check))
    nan = sorted(column for column, value in worst.items() if math.isnan(value))
    if changed or nan:
        changed = ", ".join(changed) or "none"
        return f"on build {this_build}: verdicts changed: {changed}; NaN met a number in {nan}"
    print(f"{name} on build {this_build}: largest {max(worst.values()):.3g}; verdicts changed: none")
    return None


def write(results: dict) -> None:
    """Write ``tests/golden/`` from this build's runs, preset name -> RunResult, in preset order."""
    GOLDEN.mkdir(exist_ok=True)
    lines = [preset_line(name, result) for name, result in results.items()]
    digest = hashlib.sha256("".join(f"{line}\n" for line in lines).encode("utf-8")).hexdigest()
    passed = []
    for name, result in results.items():
        checks = (f"{check}={'pass' if ok else 'fail'}" for check, ok in verdicts(result).items())
        passed.append(" ".join(["verdicts", name, *checks]))
    text = "\n".join([f"build {build()}", *lines, f"presets {digest}", *passed])
    (GOLDEN / "presets.txt").write_text(text + "\n")
    for name, result in results.items():  # mtime 0: the same frames give the same bytes
        (GOLDEN / f"{name}.csv.gz").write_bytes(gzip.compress(result.csv().encode("utf-8"), 9, mtime=0))


if __name__ == "__main__":
    import sys

    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads OpenBLAS
    sys.path.insert(0, str(TOOLS.parent / "src"))
    from flocklab.config import preset_config, preset_names
    from flocklab.runner import run

    write({name: run(preset_config(name)) for name in preset_names()})
