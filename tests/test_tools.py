"""The tools, with their preset and benchmark runs stubbed.

``tools/preset_roundoff.py``'s exit status, summary changes and ``--only``,
``tools/preset_hashes.py``'s lines, with their CLI calls stubbed too,
``tools/bench_pairs.py``'s report and exit status, and which statements
``tools/line_trace.py`` reports as never run.
"""

import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import re
import sys
from pathlib import Path
from collections import defaultdict
from types import SimpleNamespace

import pytest

from flocklab import cli
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
    "other_csv, only, moved, status",
    [
        (FRAMES, "E", "none", 0),
        (FRAMES.replace("0.5\n", "0.5000000000000001\n"), "E", "none", 0),  # the listed column moved
        (FRAMES.replace("0.5\n", "0.5000000000000001\n"), "t,E", "none", 0),
        (FRAMES.replace("0.5\n", "0.5000000000000001\n"), "t", "E", 1),  # another column moved
        (FRAMES.replace("1.0,0.5", "1.5,0.5"), "E", "t", 1),
        (FRAMES.replace("0.5\n", "nan\n"), "t", "E", 1),  # NaN met a number
    ],
    ids=["same", "listed", "both-listed", "unlisted", "t-moved", "nan"],
)
def test_preset_roundoff_only(monkeypatch, tmp_path, capsys, other_csv, only, moved, status):
    roundoff = _load("preset_roundoff")
    monkeypatch.setattr(sys, "path", list(sys.path))

    def fake_run(checkout, preset):  # equal verdicts and summaries: only the frames may differ
        csv = other_csv if checkout == tmp_path else FRAMES
        return {"csv": csv, "checks": {"bound": True}, "summary": SUMMARY}

    monkeypatch.setattr(roundoff, "_run", fake_run)
    assert roundoff.main([str(tmp_path), "--only", only]) == status
    lines = [line for line in capsys.readouterr().out.splitlines() if not line.startswith(" ")]
    assert len(lines) == len(preset_names())
    tail = f"; summary changed: none; moved outside --only: {moved}"
    assert all(line.endswith(tail) for line in lines), lines


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


@dataclasses.dataclass
class _FakeSummary:
    scenario: str
    wall_time: float

    def to_json(self) -> str:
        return json.dumps({"scenario": self.scenario, "wall_time": self.wall_time})


def test_preset_hashes_lines(monkeypatch, capsys):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # the tool sets it on import; restored after
    monkeypatch.setattr(sys, "path", list(sys.path))  # and puts this checkout's src first
    hashes = _load("preset_hashes")
    scenarios = []

    def fake_run(cfg):  # each preset's own frames, and a summary that records its wall time
        scenarios.append(cfg.scenario)
        summary = _FakeSummary(cfg.scenario, wall_time=12.5)
        return SimpleNamespace(summary=summary, csv=lambda: f"# columns: t\n{len(scenarios)}\n")

    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    def fake_cli(argv):  # what each subcommand prints for its preset
        print(" ".join(argv))
        return 0

    monkeypatch.setattr(hashes, "run", fake_run)
    monkeypatch.setattr(cli, "main", fake_cli)  # the preset lines call the CLI through its module
    hashes.main()
    out = capsys.readouterr().out
    *lines, digest_line, src_line = out.splitlines()
    assert len(lines) == len(scenarios) == len(preset_names())
    # the digest line is the SHA-256 of the preset lines as printed, newlines included
    assert digest_line == f"presets {sha(out[:out.index('presets ')])}"
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


def _bench_result(steps_per_s, failed=0):
    """A ``bench/run.py`` result line's object whose end-to-end metrics all follow steps_per_s."""
    values = {
        "run_ms_p50": 1e3 / steps_per_s, "run_ms_p90": 2e3 / steps_per_s, "steps_per_s": steps_per_s,
        "setup_s": 0.1, "peak_rss_mb": 40.0,
    }
    metrics = {name: {"value": value, "unit": "?"} for name, value in values.items()}
    return {"correct": failed == 0, "attempted": 10, "failed": failed, "metrics": metrics}


def _bench_lines(out):
    return {line.split()[0]: line for line in out.splitlines() if line.startswith("  ")}


def test_bench_pairs_alternates_and_reports_each_metric(monkeypatch, tmp_path, capsys):
    pairs = _load("bench_pairs")
    calls = []

    def fake_run(checkout, workload, seed, seconds):  # the change runs 10 steps/s faster on every seed
        calls.append((checkout, workload, seed, seconds))
        return 0, _bench_result(100.0 + seed + (10.0 if checkout == pairs.HERE else 0.0))

    monkeypatch.setattr(pairs, "_run", fake_run)
    argv = [str(tmp_path), "--workload", "chars-stepping", "--pairs", "3", "--seconds", "2", "--seed", "5"]
    assert pairs.main(argv) == 0
    sides = [tmp_path.resolve(), pairs.HERE, pairs.HERE, tmp_path.resolve(), tmp_path.resolve(), pairs.HERE]
    assert calls == [(side, "chars-stepping", 5 + k // 2, 2.0) for k, side in enumerate(sides)]
    lines = _bench_lines(capsys.readouterr().out)
    assert list(lines) == ["run_ms_p50", "run_ms_p90", "steps_per_s", "setup_s", "peak_rss_mb"]
    # parent 105, 106, 107 and change 115, 116, 117 steps/s; quartiles are inclusive of the extremes
    assert lines["steps_per_s"].endswith(
        "parent 106 [IQR 105.5-106.5], change 116 [IQR 115.5-116.5], ratio 1.0943, change ahead in 3 of 3"
    )
    assert lines["run_ms_p50"].endswith("change ahead in 3 of 3")  # lower is better there
    assert lines["setup_s"].endswith("ratio 1.0000, change ahead in 0 of 3")  # a tie is not ahead


@pytest.mark.parametrize(
    "outcome",
    [(1, _bench_result(100.0)), (0, _bench_result(100.0, failed=1)), (1, None)],
    ids=["exit-status", "failed-ops", "no-result"],
)
def test_bench_pairs_exits_1_when_a_run_fails(monkeypatch, tmp_path, capsys, outcome):
    pairs = _load("bench_pairs")

    def fake_run(checkout, workload, seed, seconds):  # the change's second run fails
        return outcome if checkout == pairs.HERE and seed == 2 else (0, _bench_result(100.0))

    monkeypatch.setattr(pairs, "_run", fake_run)
    assert pairs.main([str(tmp_path), "--workload", "dense-frames", "--pairs", "2"]) == 1
    out = capsys.readouterr().out
    assert "pair 2, seed 2, change: exit" in out
    # a run with no result leaves its pair out of every metric
    expected = 1 if outcome[1] is None else 2
    assert _bench_lines(out)["steps_per_s"].endswith(f"change ahead in 0 of {expected}")





# a module for the tracer: the line numbers below are its own
TRACED = """\
import os


def used(flag):
    \"\"\"A docstring runs no line of its own.\"\"\"
    global CACHE
    if flag:
        return 1
    elif not os.sep:
        raise TypeError("dead")
    try:
        x = 2
    except ValueError:
        x = 3
    return x


@staticmethod
def never(a,
          b):
    y = a + b
    for i in range(y):
        y += i
    return y


def outer(flag):
    @staticmethod
    def helper():
        return 1
    if flag:
        def inner():
            return 0
    return helper
"""


def test_line_trace_lists_the_outermost_statements_never_run(monkeypatch, tmp_path):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # the tool sets it on import; restored after
    trace = _load("line_trace")
    path = tmp_path / "pkg" / "mod.py"
    traced, other = {}, {}
    exec(compile(TRACED, str(path), "exec"), traced)
    exec(compile(TRACED, str(tmp_path / "other.py"), "exec"), other)
    executed = defaultdict(set)
    previous = sys.gettrace()
    sys.settrace(trace._tracer(f"{tmp_path / 'pkg'}{os.sep}", executed))
    try:
        assert traced["used"](False) == 2 and other["used"](True) == 1
        traced["outer"](False)
    finally:
        sys.settrace(previous)
    assert list(executed) == [str(path)]  # only files under the prefix
    # the docstring and the global declaration run nothing; a try runs by its body and a
    # decorated def by its decorator's line; an unrun if or loop is listed without its body
    assert trace.unrun_statements(TRACED, executed[str(path)]) == [
        (8, "return 1"), (10, 'raise TypeError("dead")'), (14, "x = 3"),
        (21, "y = a + b"), (22, "for i in range(y):"), (24, "return y"),
        (30, "return 1"), (32, "def inner():"), (33, "return 0"),
    ]
