"""Runner: determinism, bound checks, sweeps, CLI."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import flocklab
from flocklab import cli, dynamics, runner
from flocklab.cli import main as cli_main
from flocklab.config import ConfigError, parse_config, preset_config, preset_names, preset_text, with_overrides
from flocklab.diagnostics import frame_columns
from flocklab.hydro2d import classify_2d_general
from flocklab.runner import classify, run, sweep, sweep_csv
from oracles import reference_means_errors

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
    # separate processes with different BLAS thread counts write the same
    # bytes; the power-law configs run their pair sums as BLAS products
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
        for blas in ("1", "2"):
            out = tmp_path / f"{name}-blas{blas}"
            env = {**os.environ, "PYTHONPATH": pythonpath, "OPENBLAS_NUM_THREADS": blas}
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
    # each frame's pair columns come from one pair_scan, frame 0's from the
    # analysis, also where F_const_max is a column (a stable constant coupling)
    calls = []
    original = runner.pair_scan

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(runner, "pair_scan", counting)
    result = run(parse_config(SMALL))
    assert len(calls) == result.summary.n_frames == 11
    calls.clear()
    result = run(parse_config(SMOOTH_SHORT.replace("t = 5.0", "t = 0.2")))
    assert len(calls) == result.summary.n_frames == 3
    assert not any(math.isnan(frame.f_const_max) for frame in result.frames)


@pytest.mark.parametrize("text", [
    SMALL,
    SMOOTH_SHORT.replace("t = 5.0", "t = 0.2"),
    POWER_LAW_2D.replace("n = 256", "n = 16").replace("t = 0.2", "t = 0.02"),
], ids=["particles", "hydro1d", "hydro2d"])
def test_analysis_frame0_is_the_first_frame(text):
    # frame 0 is built like every frame: every column, V and F1_max included
    cfg = parse_config(text)
    an = runner.analyze(cfg)
    frame0 = dataclasses.asdict(an.frame0)
    first = dataclasses.asdict(run(cfg).frames[0])
    for name, value in frame0.items():
        assert value == first[name] or (math.isnan(value) and math.isnan(first[name])), name
    # all three are quadratic with centered data and a kernel floor, so
    # frame 0 carries V and F1_max
    assert an.theorems.applies("quadratic_flocking") and an.v_rates
    assert not any(math.isnan(frame0[name]) for name in ("lyapunov", "f1_max"))
    if text is SMALL:  # a decaying kernel floored through R0
        assert an.phi_source == "support-chain"


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


_HEAD = "t,E,E_k,deltaE_L2,deltaE_Linf,P,D,V,F1_max,F_const_max,"
_TAIL = ",min_e,max_e,min_rho,max_rho,max_abs_etaS,max_abs_omega,max_trM"


@pytest.mark.parametrize("text, header", [
    (SMALL, _HEAD + "xc_0,uc_0" + _TAIL),
    (SMALL.replace("n = 12", "n = 12\ndim = 2"), _HEAD + "xc_0,xc_1,uc_0,uc_1" + _TAIL),
    (SMOOTH_SHORT.replace("t = 5.0", "t = 0.2"), _HEAD + "xc_0,uc_0" + _TAIL),
    (
        POWER_LAW_2D.replace("n = 256", "n = 16").replace("t = 0.2", "t = 0.04"),
        _HEAD + "xc_0,xc_1,uc_0,uc_1" + _TAIL,
    ),
], ids=["particles-1d", "particles-2d", "hydro1d", "hydro2d"])
def test_frames_csv_layout_reads_back_to_the_column_view(text, header):
    # the header is the layout every earlier version wrote; each row is the
    # frame's fields in declaration order, x_c and u_c spread over d columns
    cfg = parse_config(text)
    result = run(cfg)
    lines = result.csv().splitlines()
    assert lines[0] == "# columns: " + header
    cols = frame_columns(result.frames)
    assert cols["x_c"].shape == cols["u_c"].shape == (len(result.frames), cfg.dim)
    assert len(lines) - 1 == len(result.frames)
    for i, line in enumerate(lines[1:]):
        expected = [float(v) for name in cols for v in np.atleast_1d(cols[name][i])]
        assert [float.hex(float(v)) for v in line.split(",")] == [float.hex(v) for v in expected]


def test_run_and_csv_build_the_column_view_once(monkeypatch):
    calls = []

    def counted(frames):
        calls.append(len(frames))
        return frame_columns(frames)

    monkeypatch.setattr(runner, "frame_columns", counted)
    result = run(parse_config(SMALL))
    text = result.csv()
    assert calls == [11]
    monkeypatch.undo()
    assert text == runner.frames_csv(frame_columns(result.frames))


def test_quadratic_run_has_decay_checks():
    result = run(parse_config(SMALL))
    names = {c.name for c in result.summary.bound_checks}
    assert {"deltaE_exp_bound", "deltaEinf_exp_bound", "particle_energy_bound",
            "support_energy_inequality", "means_oscillator"} <= names
    assert result.summary.all_checks_pass
    assert result.summary.blowup is None


def test_blowup_preset_is_success_semantics(preset_result):
    result = preset_result("blowup-1d-unconditional")
    assert result.summary.blowup is not None
    assert result.summary.threshold.verdict == "blowup_guaranteed"
    assert result.summary.threshold.condition == "assuB_1"
    assert result.summary.all_checks_pass
    lo, hi = result.summary.blowup
    assert 0.0 < lo < hi < 10.0


@pytest.mark.parametrize("a", [None, 3.0], ids=["preset", "a=3"])
def test_means_row_is_the_per_frame_loop(preset_result, a):
    # oscillator-means is uncentered, so its means move: the row taken over all frames at once has the
    # bits of the loop that took one frame at a time; sqrt(a) = 2 divides exactly, sqrt(3) does not
    name = "oscillator-means"
    cfg, result = preset_config(name), preset_result(name)
    if a is not None:
        cfg = with_overrides(cfg, [("potential.a", a), ("run.t", 2.0)])
        result = run(cfg)
    summary = dataclasses.replace(result.summary, notes=[])  # the rows may add notes; the run stays as it is
    rows = {row[0]: row[3] for row in runner._check_rows(summary, cfg, runner.analyze(cfg), result.columns)}
    expected = reference_means_errors(result.columns, cfg.potential.a)
    assert len(expected) == result.summary.n_frames > 20 and expected.max() > 0.0
    assert rows["means_oscillator"].tobytes() == expected.tobytes()


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
    assert (report.verdict, report.condition) == ("blowup_guaranteed", "assuB_2")
    assert report.margin > 0.0


def test_confined_run_without_closed_form_r0():
    # a power law with beta = 1.5 has no closed-form R0, so a confined run
    # has no support-chain floor, no V rates and no particle energy bound
    cfg = parse_config(SMALL.replace("n = 12", "n = 64").replace("beta = 1.0", "beta = 1.5"))
    an = runner.analyze(cfg)
    assert an.theorems.applies("quadratic_flocking") and an.report.r0 is None
    assert an.theorems.reasons["support_bound"] == "no closed-form R0 for this kernel"
    assert (an.phi_minus, an.phi_source, an.v_rates) == (None, "unavailable", ())
    result = run(cfg)
    assert all(math.isnan(f.lyapunov) and math.isnan(f.f1_max) for f in result.frames)
    assert "particle energy bound skipped: no closed-form R0 for this kernel" in result.summary.notes
    names = {c.name for c in result.summary.bound_checks}
    assert "particle_energy_bound" not in names
    assert {"deltaE_exp_bound", "deltaEinf_exp_bound", "support_energy_inequality"} <= names
    assert result.summary.all_checks_pass


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
    assert details["u_max"] == runner.analyze(cfg).report.u_max > 0.0
    assert "C_max" in report.constants
    report2, details2 = classify(cfg, u_max=1.0)
    assert details2["u_max_source"] == "supplied"
    assert report2.constants["C_max"] <= report.constants["C_max"]


def test_general_potential_hydro2d_run_checks():
    # the general-potential branch of the 2D checks: the gap budget is max(etaS0, C_max / c2)
    # and the vorticity budget the C_max / c2 forcing bound, both from the threshold report
    text = GENERAL_2D.replace("n = 64\nt = 1.0", "n = 16\nt = 0.5").replace("k = 4.0", "k = 5.0")
    text = text.replace("a = 1.25\neps = 0.25", "a = 1.0\neps = 0.1")
    text = text.replace("amplitude = 0.2", "amplitude = 0.1\nrotation = 0.25\nlength = 1.2")
    result = run(parse_config(text))
    threshold = result.summary.threshold
    assert threshold.verdict == "subcritical_general"
    assert {"etaS_budget", "omega_budget"} <= set(threshold.constants)
    checks = {c.name: c for c in result.summary.bound_checks}
    for name in ("min_e_nonneg", "eta_s_bound", "omega_bound"):
        assert checks[name].passed, name
    assert f"{threshold.constants['etaS_budget']:.6g}" in checks["eta_s_bound"].description
    assert f"{threshold.constants['omega_budget']:.6g}" in checks["omega_bound"].description
    assert result.summary.all_checks_pass


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


@pytest.mark.parametrize("count", [0, 3])
def test_sweep_takes_one_or_two_axes(count):
    axes = [("initial.amplitude", [0.0]), ("run.n", [9]), ("kernel.k", [1.0])][:count]
    with pytest.raises(ConfigError, match="one or two axes"):
        sweep(parse_config(SHARP_SWEEP), axes)


def test_sweep_rejects_two_axes_on_one_key(capsys):
    # the second axis would override the first while each row printed the first's value
    cfg = parse_config(SHARP_SWEEP)
    with pytest.raises(ConfigError, match="'initial.amplitude' twice"):
        sweep(cfg, [("initial.amplitude", [-1.5, -0.5]), ("initial.amplitude", [0.0])])
    axes = ["--axis", "potential.a=0.1:3:2", "--axis", "potential.a=0.1:0.1:1"]
    assert cli_main(["sweep", "smooth-1d-guaranteed", *axes]) == 2
    assert "'potential.a' twice" in capsys.readouterr().err


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


def test_sweep_csv_keeps_its_bytes():
    # pinned bytes: a 1D row gives the deciding condition and its margin, a 2D row the
    # joined margin names and the least non-NaN margin
    cfg = parse_config(SHARP_SWEEP)
    text = sweep_csv(*sweep(cfg, [("initial.amplitude", [-1.5, -1.0, -0.75, 0.0])], simulate=True))
    assert text == (
        "# columns: initial.amplitude,verdict,condition,margin,outcome\n"
        "-1.5,blowup_guaranteed,assuB_3,0.5,completed\n"
        "-1.0,indeterminate,none,0.0,completed\n"
        "-0.75,smooth_guaranteed,1d_assu2+1d_assu3,0.25,completed\n"
        "0.0,smooth_guaranteed,1d_assu2+1d_assu3,0.25,completed\n"
    )
    cfg = preset_config("subcritical-2d-constant")
    text = sweep_csv(*sweep(cfg, [("initial.amplitude", [0.05, 0.1, 0.4]), ("kernel.k", [2.0, 4.0])]))
    assert text == (
        "# columns: initial.amplitude,kernel.k,verdict,condition,margin\n"
        "0.05,2.0,not_subcritical,c1;c1_cond1,-0.009943855389680234\n"
        "0.05,4.0,subcritical_quadratic,c1;c1_cond1,4.0\n"
        "0.1,2.0,not_subcritical,c1;c1_cond1,-0.039775421558720936\n"
        "0.1,4.0,subcritical_quadratic,c1;c1_cond1,4.0\n"
        "0.4,2.0,not_subcritical,c1;c1_cond1,-0.6364067449395332\n"
        "0.4,4.0,subcritical_quadratic,c1;c1_cond1,4.0\n"
    )
    # below the budget the general classifier's last two margins are NaN
    text = sweep_csv(*sweep(parse_config(GENERAL_2D.replace("n = 64", "n = 16")), [("kernel.k", [2.0, 4.0])]))
    assert text == (
        "# columns: kernel.k,verdict,condition,margin\n"
        "2.0,not_subcritical,Cmi;etaS_cond2;c1_cond2,-4.0\n"
        "4.0,subcritical_general,Cmi;etaS_cond2;c1_cond2,2.0\n"
    )


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

    # the run loop calls the RK4 core, and the public steps reach it through dynamics
    for module in (runner, dynamics):
        monkeypatch.setattr(module, "_rk4_core", no_step)
    zero_potential = POWER_LAW_2D.replace("n = 256", "n = 16").replace("t = 0.2", "t = 0.01")
    zero_potential = zero_potential.replace("family = quadratic\na = 1.0", "family = zero")
    for text in (zero_potential, SMALL):
        with pytest.raises(ConfigError, match="classif") as err:
            sweep(parse_config(text), [("initial.amplitude", [0.5])], simulate=True)
        assert "classification skipped" not in str(err.value)


def test_runner_blowup_in_smooth_run_fails_check():
    # force a blow-up in a configuration the classifier certifies smooth by
    # integrating with an absurdly large step: the no_blowup check must fail
    cfg = parse_config(SMOOTH_SHORT.replace("t = 5.0\ndt = 1e-3", "t = 50\ndt = 5"))
    result = run(cfg)
    failed = {c.name for c in result.summary.bound_checks if not c.passed}
    assert result.summary.threshold.verdict == "smooth_guaranteed"
    assert result.summary.blowup is not None and "no_blowup" in failed


@pytest.mark.parametrize(
    "horizon, bracket", [("t = 50\ndt = 5", (10.0, 15.0)), ("t = 1e101\ndt = 1e100", (0.0, 1e100))],
    ids=["dt-5", "dt-1e100"],
)
def test_a_blowing_up_run_warns_nothing(horizon, bracket):
    # the runner holds one np.errstate for its loop, so float64 overflows inside the stages stay quiet;
    # dt = 5 leaves the caps before any value overflows, dt = 1e100 overflows in the first step
    cfg = parse_config(SMOOTH_SHORT.replace("t = 5.0\ndt = 1e-3", horizon))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run(cfg)
    assert result.summary.blowup == bracket


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


def test_cli_simulate_to_an_existing_file_is_an_error_before_the_run(tmp_path, capsys, monkeypatch):
    # --out names a directory: a file in its place once failed with FileExistsError after the whole run
    out = tmp_path / "taken"
    out.write_text("")
    monkeypatch.setattr(cli, "run", lambda cfg: pytest.fail("simulate integrated before making --out"))
    assert cli_main(["simulate", "riccati-oracle", "--out", str(out)]) == 2
    out_text, err = capsys.readouterr()
    assert out_text == "" and err.startswith("error: ") and str(out) in err


def test_cli_sweep_to_a_missing_directory_is_an_error(tmp_path, capsys, monkeypatch):
    calls = []
    analyze = runner.analyze
    monkeypatch.setattr(runner, "analyze", lambda cfg: calls.append(cfg) or analyze(cfg))
    out = tmp_path / "missing" / "x.csv"
    assert cli_main(["sweep", "smooth-1d-guaranteed", "--axis", "potential.a=0.1:0.2:2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err and "Traceback" not in err
    assert calls == []  # the path failed before the grid's first point was analyzed


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
    assert doc["r0"]["value"] == runner.analyze(preset_config("quadratic-flocking-1d")).report.r0 > 0.0


@pytest.mark.parametrize("old,new,r0_finite,source", [
    ("\na = 1.0", "\na = 1e-3", True, "support-chain"),
    ("\na = 1.0", "\na = 4e-4", False, "unavailable"),
    ("amplitude = 1.0", "amplitude = 50", False, "unavailable"),
], ids=["a=1e-3", "a=4e-4", "amplitude=50"])
def test_cli_weak_confinement_and_energetic_data_are_reported(tmp_path, capsys, old, new, r0_finite, source):
    # R0 or C_inf past the float range reads as inf: at a = 1e-3 the support-chain floor is 6.8e-201 and
    # m0 phi_minus lam underflows to 0; at a = 4e-4 or amplitude 50, R0's exp overflows and phi(R0) = 0 is no floor
    text = preset_text("quadratic-flocking-1d").replace("n = 256", "n = 16").replace("\nt = 40", "\nt = 0.1")
    cfg_path = tmp_path / "weak.cfg"
    cfg_path.write_text(text.replace(old, new))
    assert cli_main(["constants", str(cfg_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert math.isfinite(doc["r0"]["value"]) == r0_finite and doc["r0"]["value"] > 1e196
    assert doc["notes"][-1] == f"kernel floor source: {source}"
    assert doc["c_inf"]["value"] == (math.inf if r0_finite else None)
    assert cli_main(["simulate", str(cfg_path)]) == 0
    assert json.loads(capsys.readouterr().out)["mode"] == "particles"


@pytest.mark.parametrize("preset,statement", [
    ("smooth-1d-guaranteed", "threshold_1d"), ("subcritical-2d-constant", "threshold_2d_quadratic"),
])
def test_cli_classify_rejects_u_max_the_statement_does_not_read(preset, statement, capsys):
    # only the general-potential 2D threshold reads u_max; elsewhere a supplied bound is an error, not dropped
    assert cli_main(["classify", preset, "--u-max", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: u_max is read only by threshold_2d_general; this configuration is judged by {statement}\n"
    assert cli_main(["classify", preset]) == 0


FLOORED_GENERAL_2D = GENERAL_2D.replace(
    "family = constant\nk = 4.0",
    "family = floor_clipped\nalpha = 3.5\ninner_family = power_law\ninner_c0 = 4.0\ninner_beta = 0.5",
)


@pytest.mark.parametrize("u_max", ["-0.5", "0", "0.2", "nan", "inf", "-100"])
def test_cli_classify_rejects_u_max_that_is_not_a_velocity_bound(tmp_path, capsys, u_max):
    # the initial max |u_i| is 0.217: a smaller or non-finite bound once certified the run
    # (C_max < 0 at -0.5), gave a NaN margin, or failed with a math domain error at -100
    cfg_path = tmp_path / "floored.cfg"
    cfg_path.write_text(FLOORED_GENERAL_2D)
    assert cli_main(["classify", str(cfg_path)]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["verdict"] == "not_subcritical"
    assert cli_main(["classify", str(cfg_path), "--u-max", u_max]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: u_max must be finite and >= the initial max |u_i| = 0.217094, got {float(u_max)}\n"


@pytest.mark.parametrize("u_max", [math.nan, -0.5])
def test_classify_2d_general_rejects_u_max_that_is_nan_or_negative(u_max):
    bounds = dict(a=1.0, A=1.0, m0=1.0, phi_minus=3.0, dphi_inf=0.0, etaS0_max=0.0, omega0_max=0.0, e0_min=1.0)
    with pytest.raises(ValueError, match="u_max"):
        classify_2d_general(u_max=u_max, **bounds)


@pytest.mark.parametrize("old", ["m0 = 1.0", "length = 1.5"], ids=["run.m0", "initial.length"])
def test_cli_initial_data_that_underflow_the_masses_are_config_errors(tmp_path, capsys, old):
    # the parsed value is positive, but the masses of the initial state underflow to zero
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(preset_text("smooth-1d-guaranteed").replace(old, old.split("=")[0] + "= 1e-320"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert cli_main(["constants", str(cfg_path)]) == 2
    assert capsys.readouterr().err == "error: initial data: all masses must be positive and finite\n"


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


@pytest.mark.parametrize(
    "spec, hi", [("1.3:0.3:11", 0.3), ("0.01:0.07:4", 0.07), ("0:1:11", 1.0), ("-1.5:-0.5:3", -0.5)]
)
def test_axis_ends_at_hi(spec, hi):
    # lo + (n - 1) step misses hi by an ulp on the first two axes; the inner points stay lo + i step
    key, values = cli._parse_axis(f"potential.a={spec}")
    lo, count = values[0], len(values)
    step = (hi - lo) / (count - 1)
    assert (key, values[-1]) == ("potential.a", hi)
    assert values[:-1] == [lo + i * step for i in range(count - 1)]
    assert cli._parse_axis("potential.a=0.5:0.9:1")[1] == [0.5]


def test_cli_sweep_writes_stdout_without_out(capsys):
    spec = "potential.a=1.3:0.3:3"
    assert cli_main(["sweep", "smooth-1d-guaranteed", "--axis", spec]) == 0
    columns, rows = sweep(preset_config("smooth-1d-guaranteed"), [cli._parse_axis(spec)])
    assert capsys.readouterr().out == sweep_csv(columns, rows)
    assert [row[0] for row in rows] == [1.3, 0.8, 0.3]


def test_cli_sweep_has_no_parallel_flag(capsys):
    # grid points run in this process, one after another; there is no pool to ask for
    with pytest.raises(SystemExit) as exc:
        cli_main(["sweep", "smooth-1d-guaranteed", "--axis", "potential.a=0.1:3:4", "--parallel"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --parallel" in capsys.readouterr().err


def test_cli_sweep_grid_is_capped_before_it_is_built(monkeypatch, capsys):
    def no_point(*args):
        raise AssertionError("ran a point of a grid over the cap")

    monkeypatch.setattr(runner, "_sweep_point", no_point)
    # one axis of 10^9 points would be a list of about 32 GB
    assert cli_main(["sweep", "smooth-1d-guaranteed", "--axis", "potential.a=0:1:1000000000"]) == 2
    assert "axis point count must be in [1, 65536], got 1000000000" in capsys.readouterr().err
    # two axes under the cap whose product is over it
    axes = ["--axis", "potential.a=0.1:3:300", "--axis", "initial.amplitude=-1:0:300"]
    assert cli_main(["sweep", "smooth-1d-guaranteed", *axes]) == 2
    assert "sweep grid has 90000 points, more than the cap of 65536" in capsys.readouterr().err
    # a grid of exactly the cap runs
    monkeypatch.setattr(runner, "_sweep_point", lambda cfg, overrides, simulate: [])
    axes = [("potential.a", range(1, 257)), ("initial.amplitude", range(256))]
    _, rows = sweep(preset_config("smooth-1d-guaranteed"), axes)
    assert len(rows) == runner.MAX_GRID_POINTS == 65536


def test_cli_sweep_checks_every_point_before_it_analyzes_one(monkeypatch, capsys):
    calls = []
    analyze = runner.analyze
    monkeypatch.setattr(runner, "analyze", lambda cfg: calls.append(cfg) or analyze(cfg))
    # dt = 0.001 is a valid point; dt = 0.3 is not a whole number of steps of t = 100
    assert cli_main(["sweep", "smooth-1d-guaranteed", "--axis", "run.dt=0.001:0.3:2"]) == 2
    assert "run.t: must be a whole number (>= 1) of steps of run.dt" in capsys.readouterr().err
    assert calls == []


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


def test_cli_simulate_fails_a_diverged_run(tmp_path, capsys):
    # simulate and check share the summary's pass rule
    cfg_path = tmp_path / "diverging.cfg"
    cfg_path.write_text(DIVERGING)
    assert cli_main(["simulate", str(cfg_path)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert "no_blowup" in [c["name"] for c in doc["bound_checks"] if not c["pass"]]


def test_cli_unknown_preset_is_config_error(capsys):
    assert cli_main(["check", "nope"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_config_path_that_is_a_directory_is_config_error(tmp_path, capsys):
    assert cli_main(["constants", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config file") and str(tmp_path) in err
    assert "Traceback" not in err


def test_cli_config_file_that_is_not_utf8_is_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "latin1.cfg"
    cfg_path.write_bytes("[run]\nscenario = caf\u00e9\n".encode("latin-1"))
    assert cli_main(["constants", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config file") and str(cfg_path) in err and "not UTF-8" in err
    assert "Traceback" not in err


def test_cli_bad_axis_spec(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(SHARP_SWEEP)
    assert cli_main(["sweep", str(cfg_path), "--axis", "oops"]) == 2


def test_analysis_carries_the_report_pair_rates():
    # a stable coupling: pair_f is (K, beta) where the report has the rates;
    # below the stability condition it stays empty and the report has no rates
    for name, stable in (("convex-flocking-constant", True), ("blowup-1d-unconditional", False)):
        cfg = preset_config(name)
        an = runner.analyze(cfg)
        rep = an.report
        assert bool(an.pair_f) == (rep.mu1 is not None) == stable
        assert an.pair_f == ((cfg.m0 * cfg.kernel.value, rep.beta_cross) if stable else ())
        assert an.v_rates == ((rep.lam, rep.lam1) if an.theorems.applies("quadratic_flocking") else ())


@pytest.mark.parametrize("name", preset_names())
def test_summary_constants_are_the_constants_command(name):
    # one report per configuration: the run summary carries what `flocklab constants` prints
    cfg = preset_config(name)
    cfg = with_overrides(cfg, [("run.t", cfg.output_stride * cfg.dt)])
    constants = run(cfg).summary.as_dict()["constants"]
    assert constants == json.loads(cli.constants_json(cfg))
    assert constants["notes"][-1].startswith("kernel floor source: ")


ZERO_POTENTIAL_2D = POWER_LAW_2D.replace("n = 256", "n = 16").replace("t = 0.2", "t = 0.01").replace(
    "family = quadratic\na = 1.0", "family = zero"
)


@pytest.mark.parametrize(
    "text", [SMALL, ZERO_POTENTIAL_2D, GENERAL_2D.replace("n = 64\nt = 1.0", "n = 16\nt = 0.05")],
    ids=["particles", "zero-potential-2d", "general-2d"],
)
def test_integrate_leaves_the_report_untouched(text):
    cfg = parse_config(text)
    an = runner.analyze(cfg)
    report = an.report.as_dict()
    first, second = (runner._integrate(cfg, an).summary for _ in range(2))
    assert first.to_json() == second.to_json()
    assert first.constants is an.report and an.report.as_dict() == report
    skipped = "classification skipped: 2D classification needs a uniformly convex potential"
    assert (skipped in first.notes) == ("family = zero" in text)
    assert not any(note.startswith("classification skipped") for note in an.report.notes)
