"""Every preset's bytes against ``tests/golden/``, from the session's one run of each preset.

On the build that wrote the golden files a preset's ``tools/preset_hashes.py``
line must match exactly; on another build its frames are held to
``tools/preset_roundoff.py``'s rule and its verdicts must not change (see
``tests/golden.py``).  Neither branch skips.
"""

import dataclasses
import hashlib
from types import SimpleNamespace

import pytest

import golden
from flocklab.config import preset_names


@pytest.mark.parametrize("name", preset_names())
def test_preset_bytes_match_the_golden_files(preset_result, name):
    problem = golden.mismatch(name, preset_result(name), golden.read(), golden.build())
    assert problem is None, problem


def test_golden_files_cover_every_preset():
    files = golden.read()
    assert list(files.lines) == list(files.verdicts) == preset_names()
    frames = sorted(path.name for path in golden.GOLDEN.glob("*.csv.gz"))
    assert frames == [f"{name}.csv.gz" for name in preset_names()]
    text = (golden.GOLDEN / "presets.txt").read_text()
    digest = hashlib.sha256("".join(f"{files.lines[n]}\n" for n in preset_names()).encode()).hexdigest()
    assert f"\npresets {digest}\n" in text


def _run_with(csv: str, checks: dict):
    summary = SimpleNamespace(bound_checks=[SimpleNamespace(name=k, passed=v) for k, v in checks.items()])
    return SimpleNamespace(csv=lambda: csv, summary=summary)


def test_another_build_holds_the_frames_to_the_roundoff_rule(preset_result):
    files = golden.read()
    name = "oscillator-means"
    frames, checks = golden.golden_frames(name), files.verdicts[name]
    other = "numpy 0; another BLAS; cpu none"
    # this build's run, judged as if on another build: the frames moved by nothing
    assert golden.mismatch(name, preset_result(name), files, other) is None
    head, first, *rest = frames.splitlines(keepends=True)
    cells = first.split(",")
    cells[1] = repr(float(cells[1]) * (1.0 + 1e-12))
    moved = "".join([head, ",".join(cells), *rest])
    assert golden.mismatch(name, _run_with(moved, checks), files, other) is None  # round-off passes
    first_check = next(iter(checks))
    failed = {**checks, first_check: not checks[first_check]}
    problem = golden.mismatch(name, _run_with(frames, failed), files, other)
    assert f"verdicts changed: {first_check};" in problem
    assert "frames: columns or frame count differ" in golden.mismatch(
        name, _run_with("".join([head, *rest]), checks), files, other
    )
    cells[1] = "nan"
    nan = "".join([head, ",".join(cells), *rest])
    assert "NaN met a number in ['E']" in golden.mismatch(name, _run_with(nan, checks), files, other)


def test_preset_line_leaves_the_run_untouched(preset_result):
    result = preset_result("blowup-1d-unconditional")
    before = dataclasses.asdict(result.summary)
    golden.preset_line("blowup-1d-unconditional", result)
    assert dataclasses.asdict(result.summary) == before
