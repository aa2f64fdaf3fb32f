"""Runner: determinism, bound checks, sweeps, CLI."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flocklab
from flocklab import initial, runner
from flocklab.cli import main as cli_main
from flocklab.config import ConfigError, parse_config, preset_config, preset_text
from flocklab.runner import classify, run, sweep, sweep_csv

SMALL = """
[run]
n = 12
t = 0.5
dt = 1e-3
output_stride = 50
seed = 11
[kernel]
family = power_law
c0 = 1.0
beta = 1.0
[potential]
family = quadratic
a = 1.0
[initial]
positions = uniform
velocities = random
amplitude = 1.0
recenter = true
"""

SMOOTH_SHORT = """
[run]
scenario = smooth-short
mode = hydro1d
n = 32
t = 5.0
dt = 1e-3
output_stride = 100
[kernel]
family = constant
k = 1.0
[potential]
family = quadratic
a = 0.2
[initial]
positions = bump
velocities = sinusoidal
amplitude = -0.7
length = 1.5
"""

SHARP_SWEEP = """
[run]
mode = hydro1d
n = 16
t = 1.0
[kernel]
family = constant
k = 1.0
[potential]
family = zero
[initial]
positions = bump
velocities = linear
amplitude = 0.0
"""


POWER_LAW_2D = """
[run]
mode = hydro2d
dim = 2
n = 256
dt = 1e-3
t = 0.2
output_stride = 20
[kernel]
family = power_law
c0 = 3.0
beta = 0.5
[potential]
family = quadratic
a = 1.0
[initial]
positions = bump
velocities = sinusoidal
amplitude = 0.5
rotation = 0.25
length = 1.2
"""


def test_run_is_deterministic_bytewise(tmp_path):
    # separate processes with different thread settings write the same bytes;
    # the power-law configs run their pair sums as BLAS products
    src = str(Path(flocklab.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    configs = {
        "small": SMALL.replace("n = 12", "n = 256"),
        "particles-2d": SMALL.replace("n = 12", "n = 256\ndim = 2"),
        "hydro2d": POWER_LAW_2D,
        # past N = 512 OpenBLAS would split unblocked products over threads
        "particles-700": SMALL.replace("n = 12", "n = 700").replace("t = 0.5", "t = 0.05"),
        "particles-700-2d": SMALL.replace("n = 12", "n = 700\ndim = 2").replace("t = 0.5", "t = 0.05"),
    }
    for name, text in configs.items():
        cfg_path = tmp_path / f"{name}.cfg"
        cfg_path.write_text(text)
        outputs = []
        for threads, blas in (("1", "1"), ("4", "2")):
            out = tmp_path / f"{name}-threads{threads}"
            env = {**os.environ, "PYTHONPATH": pythonpath, "FLOCKLAB_THREADS": threads, "OPENBLAS_NUM_THREADS": blas}
            subprocess.run(
                [sys.executable, "-m", "flocklab.cli", "simulate", str(cfg_path), "--out", str(out)],
                env=env, check=True, capture_output=True,
            )
            summary = json.loads((out / "summary.json").read_text())
            summary["wall_time"] = 0.0
            outputs.append(((out / "frames.csv").read_bytes(), json.dumps(summary)))
        assert outputs[0] == outputs[1], name


def test_run_builds_the_initial_state_once(monkeypatch):
    calls = []
    build_state = runner.build_state

    def counting(cfg):
        calls.append(cfg)
        return build_state(cfg)

    monkeypatch.setattr(runner, "build_state", counting)
    for text in (SMALL, SMOOTH_SHORT.replace("t = 5.0", "t = 0.2")):
        calls.clear()
        run(parse_config(text))
        assert len(calls) == 1
    # a simulated sweep point takes its verdict from the run
    calls.clear()
    sweep(parse_config(SHARP_SWEEP), [("initial.amplitude", [-1.5, 0.0])], simulate=True)
    assert len(calls) == 2


def test_run_computes_the_first_frame_once(monkeypatch):
    calls = []
    for module in (runner, initial):
        original = module.fluctuations

        def counting(*args, _original=original):
            calls.append(args)
            return _original(*args)

        monkeypatch.setattr(module, "fluctuations", counting)
    result = run(parse_config(SMALL))
    assert len(calls) == result.summary.n_frames == 11


@pytest.mark.parametrize("text", [
    SMALL,
    SMOOTH_SHORT.replace("t = 5.0", "t = 0.2"),
    POWER_LAW_2D.replace("n = 256", "n = 16").replace("t = 0.2", "t = 0.02"),
], ids=["particles", "hydro1d", "hydro2d"])
def test_analysis_frame0_is_the_first_frame(text):
    cfg = parse_config(text)
    an = runner.analyze(cfg)
    frame0 = dataclasses.asdict(an.frame0)
    first = dataclasses.asdict(run(cfg).frames[0])
    report_columns = ("lyapunov", "f1_max", "f_const_max")
    assert all(math.isnan(frame0[name]) for name in report_columns)
    for name, value in frame0.items():
        if name not in report_columns:
            assert value == first[name] or (math.isnan(value) and math.isnan(first[name])), name
    assert not math.isnan(first["lyapunov"])  # the run fills in the report columns
    # on a copy: integrating the analysis leaves its frame 0 as it was
    runner._integrate(cfg, an)
    assert all(math.isnan(getattr(an.frame0, name)) for name in report_columns)


def test_frames_csv_shape():
    result = run(parse_config(SMALL))
    text = result.csv()
    lines = text.strip().split("\n")
    assert lines[0].startswith("# columns: t,E,E_k,deltaE_L2,deltaE_Linf,P,D,V,F1_max,F_const_max,")
    n_cols = len(lines[0].split(": ")[1].split(","))
    for line in lines[1:]:
        assert len(line.split(",")) == n_cols
    # t = 0 frame plus one per stride (the last step lands on a stride)
    assert len(lines) - 1 == result.summary.n_frames == 11


def test_quadratic_run_has_decay_checks():
    result = run(parse_config(SMALL))
    names = {c.name for c in result.summary.bound_checks}
    assert {"deltaE_exp_bound", "deltaEinf_exp_bound", "particle_energy_bound",
            "support_energy_inequality", "means_oscillator"} <= names
    assert result.summary.all_checks_pass
    assert result.summary.blowup is None


def test_blowup_preset_is_success_semantics():
    result = run(preset_config("blowup-1d-unconditional"))
    assert result.summary.blowup is not None
    assert result.summary.threshold.verdict == "blowup_guaranteed"
    assert result.summary.threshold.triggered_condition == "assuB_1"
    assert result.summary.all_checks_pass
    lo, hi = result.summary.blowup
    assert 0.0 < lo < hi < 10.0


def test_smooth_short_run_checks():
    result = run(parse_config(SMOOTH_SHORT))
    assert result.summary.threshold.verdict == "smooth_guaranteed"
    names = {c.name for c in result.summary.bound_checks}
    assert {"min_e_persistence", "max_e_bound", "no_blowup", "deltaE_pair_bound"} <= names
    assert result.summary.all_checks_pass


def test_frame_invariants():
    result = run(parse_config(SMALL))
    m0 = 1.0
    for f in result.frames:
        assert f.total_energy >= f.kinetic_energy >= 0.0
        assert f.diameter >= 0.0
        assert f.delta_e_l2 >= 0.0
        assert f.delta_e_linf >= f.delta_e_l2 / (m0 * m0) - 1e-12


def test_classify_uses_support_chain_for_decaying_kernels():
    text = SMOOTH_SHORT.replace("family = constant\nk = 1.0",
                                "family = power_law\nc0 = 1.0\nbeta = 1.0")
    report, details = classify(parse_config(text))
    assert details["phi_minus_source"] == "support-chain"
    assert 0.0 < details["phi_minus"] < 1.0
    assert report.verdict in ("smooth_guaranteed", "indeterminate", "blowup_guaranteed")


def test_classify_zero_floor_fallback():
    # decaying kernel under a non-quadratic potential: no a-priori floor, so
    # only the floor-free blow-up branches of the 1D classifier can fire
    text = preset_text("smooth-1d-guaranteed").replace(
        "family = constant\nk = 1.0", "family = power_law\nc0 = 1.0\nbeta = 1.0"
    ).replace("family = quadratic\na = 0.2", "family = perturbed_quadratic\na = 0.2\neps = 0.1")
    report, details = classify(parse_config(text))
    assert details == {"phi_minus": None, "phi_minus_source": "zero-fallback"}
    assert (report.verdict, report.triggered_condition) == ("blowup_guaranteed", "assuB_2")
    assert report.margin > 0.0


def test_summary_json_serializes():
    result = run(parse_config(SMALL))
    doc = json.loads(result.summary.to_json())
    assert doc["mode"] == "particles"
    assert doc["bound_checks"]
    assert "constants" in doc and "lam" in doc["constants"]


def test_classify_rejects_particle_mode():
    with pytest.raises(ConfigError, match="characteristic mode"):
        classify(parse_config(SMALL))


GENERAL_2D = """
[run]
mode = hydro2d
dim = 2
n = 64
t = 1.0
[kernel]
family = constant
k = 4.0
[potential]
family = perturbed_quadratic
a = 1.25
eps = 0.25
kappa = 1.0
[initial]
positions = bump
velocities = sinusoidal
amplitude = 0.2
"""


def test_classify_general_potential_records_umax_source():
    cfg = parse_config(GENERAL_2D)
    report, details = classify(cfg)
    assert details["u_max_source"] == "apriori-bound"
    assert "C_max" in report.constants
    report2, details2 = classify(cfg, u_max=1.0)
    assert details2["u_max_source"] == "supplied"
    assert report2.constants["C_max"] <= report.constants["C_max"]


def test_sweep_cardinality_and_order():
    cfg = parse_config(SHARP_SWEEP)
    columns, rows = sweep(
        cfg,
        [("initial.amplitude", [-1.5, -0.5]), ("run.n", [9, 16, 25])],
    )
    assert columns[:2] == ["initial.amplitude", "run.n"]
    assert len(rows) == 6
    assert [r[1] for r in rows] == [9, 16, 25, 9, 16, 25]
    text = sweep_csv(columns, rows)
    assert text.startswith("# columns: initial.amplitude,run.n,verdict")


def test_sweep_reproduces_sharp_threshold_boundary():
    # potential-free with a kernel floor: smooth iff min e0 > 0, blow-up iff < 0;
    # with linear profile slope s and unit coupling, min e0 = 1 + s
    cfg = parse_config(SHARP_SWEEP)
    _, rows = sweep(cfg, [("initial.amplitude", [-1.5, -1.25, -0.75, -0.5])])
    verdicts = [r[1] for r in rows]
    assert verdicts == [
        "blowup_guaranteed",
        "blowup_guaranteed",
        "smooth_guaranteed",
        "smooth_guaranteed",
    ]


def test_sweep_single_point_matches_classify():
    cfg = parse_config(SHARP_SWEEP)
    report, _ = classify(cfg)
    _, rows = sweep(cfg, [("initial.amplitude", [0.0])])
    assert rows[0][1] == report.verdict
    assert rows[0][3] == pytest.approx(report.margin)


def test_sweep_parallel_preserves_order():
    cfg = parse_config(SHARP_SWEEP)
    axes = [("initial.amplitude", [-1.5, -0.5, 0.5])]
    _, sequential = sweep(cfg, axes)
    _, parallel = sweep(cfg, axes, max_workers=2)
    assert parallel == sequential


def test_sweep_simulate_outcome_column(monkeypatch):
    cfg = parse_config(SHARP_SWEEP.replace("t = 1.0", "t = 2.0"))
    columns, rows = sweep(cfg, [("initial.amplitude", [-1.5, 0.0])], simulate=True)
    assert columns[-1] == "outcome"
    assert rows[0][-1].startswith("blowup[")
    assert rows[1][-1] == "completed"
    # a simulated point that cannot be classified raises, as an unsimulated one
    # does, with classify's own message and before the first step

    def no_step(*args):
        raise AssertionError("stepped a point that cannot be classified")

    for name in ("step_rk4", "step_2d"):
        monkeypatch.setattr(runner, name, no_step)
    zero_potential = POWER_LAW_2D.replace("n = 256", "n = 16").replace("t = 0.2", "t = 0.01")
    zero_potential = zero_potential.replace("family = quadratic\na = 1.0", "family = zero")
    for text in (zero_potential, SMALL):
        with pytest.raises(ConfigError, match="classif") as err:
            sweep(parse_config(text), [("initial.amplitude", [0.5])], simulate=True)
        assert "classification skipped" not in str(err.value)


def test_runner_blowup_in_smooth_run_fails_check():
    # force a blow-up in a configuration the classifier certifies smooth by
    # integrating with an absurdly large step: the no_blowup check must fail
    cfg = parse_config(SMOOTH_SHORT.replace("dt = 1e-3", "dt = 4.9"))
    result = run(cfg)
    failed = {c.name for c in result.summary.bound_checks if not c.passed}
    assert result.summary.blowup is None or "no_blowup" in failed


# --- command-line interface ---


def test_cli_simulate_writes_outputs(tmp_path, capsys):
    cfg_path = tmp_path / "small.cfg"
    cfg_path.write_text(SMALL)
    out_dir = tmp_path / "out"
    code = cli_main(["simulate", str(cfg_path), "--out", str(out_dir)])
    assert code == 0
    assert (out_dir / "frames.csv").exists()
    assert (out_dir / "summary.json").exists()
    doc = json.loads((out_dir / "summary.json").read_text())
    assert doc["mode"] == "particles"
    assert json.loads(capsys.readouterr().out)["mode"] == "particles"


def test_cli_classify_and_constants(capsys):
    assert cli_main(["classify", "blowup-1d-unconditional"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["verdict"] == "blowup_guaranteed"
    assert cli_main(["constants", "blowup-1d-unconditional"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["beta_cross"]["value"] is not None
    # oscillator-means is not centered, so R0 neither bounds its run nor
    # floors its kernel: the report gives no R0 and no floor-dependent constant
    assert cli_main(["constants", "oscillator-means"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "kernel floor source: unavailable" in doc["notes"]
    assert doc["r0"]["value"] is None and doc["phi_minus_from_r0"]["value"] is None
    assert all(doc[name]["value"] is None for name in ("lam", "c_inf", "c", "c_0", "c_star"))
    # a centered quadratic run reports the analysis's own R0
    assert cli_main(["constants", "quadratic-flocking-1d"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["r0"]["value"] == runner.analyze(preset_config("quadratic-flocking-1d")).r0 > 0.0


def test_cli_sweep(tmp_path):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(SHARP_SWEEP)
    out = tmp_path / "grid.csv"
    code = cli_main([
        "sweep", str(cfg_path), "--axis", "initial.amplitude=-1.5:-0.5:3", "--out", str(out)
    ])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 4
    # an integer key is written as the integer the run used
    code = cli_main(["sweep", str(cfg_path), "--axis", "run.n=8:16:3", "--out", str(out)])
    assert code == 0
    assert [line.split(",")[0] for line in out.read_text().strip().split("\n")[1:]] == ["8", "12", "16"]
    # a key left out of serialized text at its default (rotation = 0.0) works too
    cfg_path.write_text(POWER_LAW_2D.replace("n = 256", "n = 16"))
    code = cli_main(["sweep", str(cfg_path), "--axis", "initial.rotation=-0.5:0.5:3", "--out", str(out)])
    assert code == 0
    assert [line.split(",")[0] for line in out.read_text().strip().split("\n")[1:]] == ["-0.5", "0.0", "0.5"]


def test_cli_sweep_parallel_matches_sequential(tmp_path, monkeypatch):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(SHARP_SWEEP)
    seq, par = tmp_path / "seq.csv", tmp_path / "par.csv"
    axis = ["--axis", "initial.amplitude=-1.5:-0.5:3"]
    assert cli_main(["sweep", str(cfg_path), *axis, "--out", str(seq)]) == 0
    monkeypatch.setenv("FLOCKLAB_THREADS", "2")
    assert cli_main(["sweep", str(cfg_path), *axis, "--parallel", "--out", str(par)]) == 0
    assert seq.read_text() == par.read_text()


def test_cli_check_blowup_preset(capsys):
    code = cli_main(["check", "blowup-1d-unconditional"])
    out = capsys.readouterr().out
    assert code == 0
    assert "RESULT: PASS" in out
    assert "blow-up bracket" in out


DIVERGING = """
[run]
n = 16
dt = 3
t = 300
output_stride = 1000
[kernel]
family = constant
k = 1
[potential]
family = quadratic
a = 1
[initial]
recenter = true
"""


def test_cli_check_fails_a_diverged_run(tmp_path, capsys):
    # dt far beyond RK4 stability: the run diverges before its first output
    # frame, so bounds checked on the t = 0 frame alone must not read as PASS
    cfg_path = tmp_path / "diverging.cfg"
    cfg_path.write_text(DIVERGING)
    assert cli_main(["check", str(cfg_path)]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] no_blowup" in out
    assert "blow-up bracket" in out
    assert "RESULT: FAIL" in out
    # the last finite state before the blow-up is kept as a frame
    result = run(parse_config(DIVERGING))
    assert [f.t for f in result.frames] == [0.0, result.summary.blowup[0]]
    assert result.summary.blowup[0] > 0.0


def test_cli_unknown_preset_is_config_error(capsys):
    assert cli_main(["check", "nope"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_bad_axis_spec(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(SHARP_SWEEP)
    assert cli_main(["sweep", str(cfg_path), "--axis", "oops"]) == 2
