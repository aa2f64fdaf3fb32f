"""The preset tools, with their preset runs stubbed.

``tools/preset_roundoff.py``'s exit status and summary changes, and ``tools/preset_hashes.py``'s lines,
with its CLI calls stubbed too.
"""

import hashlib
import importlib.util
import json
import math
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from flocklab.config import preset_config, preset_names

TOOLS = Path(__file__).resolve().parents[1] / "tools"

FRAMES = "# columns: t,E\n0.0,1.0\n1.0,0.5\n"
# NaN must meet NaN, as in the frames
SUMMARY = {
    "config": "[run]\nn = 4",
    "constants": {"lam": {"value": math.nan}, "c2": {"value": None}},
    "wall_time": 1.0,
}


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "other_csv, other_checks, status",
    [
        (FRAMES, {"bound": True}, 0),
        (FRAMES.replace("0.5\n", "0.5000000000000001\n"), {"bound": True}, 0),  # round-off only
        (FRAMES, {"bound": False}, 1),  # a verdict changed
        (FRAMES, {}, 1),  # a check is gone
        ("# columns: t,E\n0.0,1.0\n", {"bound": True}, 1),  # another frame count
        (FRAMES.replace("t,E", "t,E_k"), {"bound": True}, 1),  # other columns
    ],
    ids=["same", "roundoff", "verdict", "check-gone", "frame-count", "columns"],
)
def test_preset_roundoff_exit_status(monkeypatch, tmp_path, capsys, other_csv, other_checks, status):
    roundoff = _load("preset_roundoff")
    monkeypatch.setattr(sys, "path", list(sys.path))  # main puts this checkout's src first

    def fake_run(checkout, preset):  # no subprocess: the other checkout gives the case's frames
        if checkout == tmp_path:
            return {"csv": other_csv, "checks": other_checks, "summary": SUMMARY}
        return {"csv": FRAMES, "checks": {"bound": True}, "summary": SUMMARY}

    monkeypatch.setattr(roundoff, "_run", fake_run)
    assert roundoff.main([str(tmp_path)]) == status
    lines = [line for line in capsys.readouterr().out.splitlines() if not line.startswith(" ")]
    assert [line.split(":")[0] for line in lines] == list(preset_names())
    assert all(line.endswith("; summary changed: none") for line in lines)


@pytest.mark.parametrize(
    "other_summary, changed",
    [
        (SUMMARY, "none"),
        ({**SUMMARY, "wall_time": 9.0}, "none"),  # the one field that varies between runs
        ({**SUMMARY, "config": "[run]\nn = 4\nz = 1.0"}, "config"),
        ({**SUMMARY, "constants": {**SUMMARY["constants"], "c1": {"value": None}}}, "constants.c1"),
        (
            {**SUMMARY, "constants": {"lam": {"value": 0.25}, "c2": {}}},
            "constants.c2.value, constants.lam.value",
        ),
        ({**SUMMARY, "notes": ["nan"]}, "notes"),
    ],
    ids=["same", "wall-time", "config", "key-gone", "values", "key-added"],
)
def test_preset_roundoff_names_summary_changes(monkeypatch, tmp_path, capsys, other_summary, changed):
    roundoff = _load("preset_roundoff")
    monkeypatch.setattr(sys, "path", list(sys.path))

    def fake_run(checkout, preset):  # equal frames and verdicts: only the summaries may differ
        summary = other_summary if checkout == tmp_path else SUMMARY
        return {"csv": FRAMES, "checks": {"bound": True}, "summary": summary}

    monkeypatch.setattr(roundoff, "_run", fake_run)
    assert roundoff.main([str(tmp_path)]) == 0  # a summary change alone leaves the exit status 0
    lines = [line for line in capsys.readouterr().out.splitlines() if not line.startswith(" ")]
    assert len(lines) == len(preset_names())
    assert all(line.endswith(f"; summary changed: {changed}") for line in lines), lines


def test_preset_hashes_lines(monkeypatch, capsys):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # the tool sets it on import; restored after
    monkeypatch.setattr(sys, "path", list(sys.path))  # and puts this checkout's src first
    hashes = _load("preset_hashes")
    scenarios = []

    def fake_run(cfg):  # each preset's own frames, and a summary that records its wall time
        scenarios.append(cfg.scenario)
        summary = SimpleNamespace(wall_time=12.5)
        summary.to_json = lambda: json.dumps({"scenario": cfg.scenario, "wall_time": summary.wall_time})
        return SimpleNamespace(summary=summary, csv=lambda: f"# columns: t\n{len(scenarios)}\n")

    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    def fake_cli(argv):  # what each subcommand prints for its preset
        print(" ".join(argv))
        return 0

    monkeypatch.setattr(hashes, "run", fake_run)
    monkeypatch.setattr(hashes, "cli_main", fake_cli)
    hashes.main()
    *lines, src_line = capsys.readouterr().out.splitlines()
    assert len(lines) == len(scenarios) == len(preset_names())
    # the last line counts the package's source lines, as wc -l does
    sources = sorted((TOOLS.parent / "src").rglob("*.py"))
    assert any(path.name == "dynamics.py" for path in sources)
    assert src_line == f"src lines {sum(len(path.read_text().splitlines()) for path in sources)}"
    for i, (name, line) in enumerate(zip(preset_names(), lines), start=1):
        match = re.fullmatch(
            r"(\S+) frames ([0-9a-f]{64}) summary ([0-9a-f]{64})"
            r" constants ([0-9a-f]{64}) classify ([0-9a-f]{64}|-)",
            line,
        )
        assert match and match[1] == name, line
        assert match[2] == sha(f"# columns: t\n{i}\n")
        assert match[3] == sha(json.dumps({"scenario": scenarios[i - 1], "wall_time": 0.0}))
        assert match[4] == sha(f"constants {name}\n")
        particles = preset_config(name).mode == "particles"
        assert match[5] == ("-" if particles else sha(f"classify {name}\n"))
    assert {line.endswith(" classify -") for line in lines} == {True, False}  # both kinds of preset
