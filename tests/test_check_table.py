"""The runner's table of bound checks against the hand-built checks it replaced.

``runner._check_rows`` yields one row per check and ``runner._integrate``
reduces each row to its ``max_violation``; ``oracles.reference_check_summary``
builds the same checks, notes and rate fit with the code that wrote each
check by hand.  Every preset at 20 output strides and eight configs that
reach the remaining branches must give the same checks field for field,
``max_violation`` compared bit for bit, and the same notes and rate fit.
On the same configs, every check belongs to a statement that applies in
the run's ``theorems`` record, and every skip note quotes the record's
reason for the statement it skips, and every threshold row's bound is the
value under its key in the threshold report's ``constants``.
"""

import functools

import pytest

from flocklab import runner
from flocklab.config import parse_config, preset_config, preset_names, with_overrides
from oracles import reference_check_summary
from test_runner import DIVERGING, GENERAL_2D, SMALL, ZERO_POTENTIAL_2D

# each preset's checks in summary order; the full-horizon runs give the same lists
PRESET_CHECKS = {
    "blowup-1d-unconditional": [
        "deltaE_exp_bound", "deltaEinf_exp_bound", "particle_energy_bound", "support_energy_inequality",
        "means_oscillator", "blowup_detected",
    ],
    "convex-flocking-constant": ["deltaE_pair_bound", "no_blowup"],
    "convex-flocking-powerlaw": ["deltaE_sqrt_trend", "no_blowup"],
    "oscillator-means": ["support_energy_inequality", "means_oscillator", "no_blowup"],
    "quadratic-flocking-1d": [
        "deltaE_exp_bound", "deltaEinf_exp_bound", "particle_energy_bound", "support_energy_inequality",
        "means_oscillator", "no_blowup",
    ],
    "quadratic-flocking-2d": [
        "deltaE_exp_bound", "deltaEinf_exp_bound", "particle_energy_bound", "support_energy_inequality",
        "means_oscillator", "no_blowup",
    ],
    "riccati-oracle": [
        "deltaE_exp_bound", "deltaEinf_exp_bound", "particle_energy_bound", "support_energy_inequality",
        "means_oscillator", "deltaE_pair_bound", "min_e_persistence", "max_e_bound", "no_blowup",
    ],
    "smooth-1d-guaranteed": [
        "deltaE_exp_bound", "deltaEinf_exp_bound", "particle_energy_bound", "support_energy_inequality",
        "means_oscillator", "deltaE_pair_bound", "min_e_persistence", "max_e_bound", "no_blowup",
    ],
    "subcritical-2d-constant": [
        "deltaE_exp_bound", "deltaEinf_exp_bound", "particle_energy_bound", "support_energy_inequality",
        "means_oscillator", "deltaE_pair_bound", "min_e_nonneg", "eta_s_bound", "omega_bound", "no_blowup",
    ],
}


def _at_strides(name, strides):
    cfg = preset_config(name)
    return with_overrides(cfg, [("run.t", strides * cfg.output_stride * cfg.dt)])


def _general_2d():
    # the general-potential hydro2d run of test_runner.test_general_potential_hydro2d_run_checks
    text = GENERAL_2D.replace("n = 64\nt = 1.0", "n = 16\nt = 0.5").replace("k = 4.0", "k = 5.0")
    text = text.replace("a = 1.25\neps = 0.25", "a = 1.0\neps = 0.1")
    return parse_config(text.replace("amplitude = 0.2", "amplitude = 0.1\nrotation = 0.25\nlength = 1.2"))


# a 2D quadratic run certified subcritical with a decaying kernel, so the gap forcing constant C_star > 0;
# the initial cloud must be nearly a point (half-width 1e-4) for the budget to certify
CERTIFIED_DECAYING_2D = """
[run]
mode = hydro2d
dim = 2
n = 16
t = 2.0
[kernel]
family = floor_clipped
alpha = 2.99
inner_family = power_law
inner_c0 = 3.0
inner_beta = 0.05
[potential]
family = quadratic
a = 0.5
[initial]
positions = bump
velocities = sinusoidal
amplitude = 0.5
length = 1e-4
"""

CONFIGS = {
    **{name: (lambda name=name: _at_strides(name, 20)) for name in PRESET_CHECKS},
    # confined, but a power law with beta = 1.5 has no closed-form R0
    "confined-no-r0": lambda: parse_config(
        SMALL.replace("n = 12", "n = 64").replace("beta = 1.0", "beta = 1.5")
    ),
    "general-2d": _general_2d,
    "diverging": lambda: parse_config(DIVERGING),
    # a stable power law with fewer than 5 frames in the trailing half skips the sqrt trend
    "sqrt-trend-skipped": lambda: _at_strides("convex-flocking-powerlaw", 4),
    # one agent: deltaE_L2 is 0 throughout, so the trend has no positive samples to fit
    "sqrt-trend-collapsed": lambda: with_overrides(_at_strides("convex-flocking-powerlaw", 20), [("run.n", 1)]),
    # predicted to blow up, but stopped long before it does
    "blowup-reaches-t": lambda: with_overrides(preset_config("blowup-1d-unconditional"), [("run.t", 0.5)]),
    # no uniformly convex potential: classification skipped, with a note
    "zero-potential-2d": lambda: parse_config(ZERO_POTENTIAL_2D),
    "certified-decaying-2d": lambda: parse_config(CERTIFIED_DECAYING_2D),
}

# the statement each check belongs to; "threshold" is the one the record selects, no_blowup belongs to every run
CHECK_STATEMENTS = {
    "deltaE_exp_bound": "quadratic_flocking",
    "deltaEinf_exp_bound": "quadratic_flocking",
    "particle_energy_bound": "support_bound",
    "support_energy_inequality": "means_oscillation",
    "means_oscillator": "means_oscillation",
    "deltaE_pair_bound": "convex_flocking_constant",
    "deltaE_sqrt_trend": "convex_flocking_decaying",
    "min_e_persistence": "threshold",
    "max_e_bound": "threshold",
    "blowup_detected": "threshold",
    "min_e_nonneg": "threshold",
    "eta_s_bound": "threshold",
    "omega_bound": "threshold",
    "no_blowup": None,
}
# a threshold row -> the key of its bound in the threshold report's constants, and the sign of its excess:
# +1 for an upper bound (quantity - bound), -1 for a lower bound (bound - quantity)
THRESHOLD_BOUNDS = {
    "min_e_persistence": ("e_lower_root", -1.0),
    "max_e_bound": ("e_upper", 1.0),
    "eta_s_bound": ("etaS_budget", 1.0),
    "omega_bound": ("omega_budget", 1.0),
}
# a skip note's prefix -> the statement whose reason it quotes
SKIP_NOTES = {"particle energy bound skipped: ": "support_bound", "classification skipped: ": "threshold"}
# the one note that is about the run's data, not a hypothesis: the statement applies, the frames are too few
TREND_SKIPPED = "sqrt-weighted trend skipped: fewer than 5 frames in the trailing half"


@functools.cache
def _run(name):
    cfg = CONFIGS[name]()
    an = runner.analyze(cfg)
    return cfg, an, runner._integrate(cfg, an)


@functools.cache
def _table_and_oracle(name):
    cfg, an, result = _run(name)
    return result.summary, reference_check_summary(result.summary, cfg, an, result.frames)


def _fields(check):
    return check.name, check.description, check.tol, float.hex(check.max_violation), check.passed


@pytest.mark.parametrize("name", CONFIGS)
def test_check_table_equals_the_hand_built_checks(name):
    summary, ref = _table_and_oracle(name)
    assert [_fields(c) for c in summary.bound_checks] == [_fields(c) for c in ref.bound_checks]
    assert summary.notes == ref.notes
    assert summary.rate_fits == ref.rate_fits
    if name in PRESET_CHECKS:
        assert [c.name for c in summary.bound_checks] == PRESET_CHECKS[name]


def test_every_preset_has_pinned_checks():
    assert sorted(PRESET_CHECKS) == sorted(preset_names())


def test_configs_reach_every_branch():
    # the extra configs add the three skip notes, the collapsed trend, the failing one-sample
    # rows, a general-potential omega budget and 2D budgets with C_star > 0 to what the presets reach
    summaries = {name: _table_and_oracle(name)[0] for name in CONFIGS if name not in PRESET_CHECKS}
    skipped_r0 = "particle energy bound skipped: no closed-form R0 for this kernel"
    assert skipped_r0 in summaries["confined-no-r0"].notes
    skipped_trend = "sqrt-weighted trend skipped: fewer than 5 frames in the trailing half"
    assert summaries["sqrt-trend-skipped"].notes == [skipped_trend]
    assert "fluctuations fully collapsed" in summaries["sqrt-trend-collapsed"].bound_checks[0].description
    assert summaries["general-2d"].threshold.verdict == "subcritical_general"
    skipped_2d = "classification skipped: 2D classification needs a uniformly convex potential"
    assert summaries["zero-potential-2d"].notes == [skipped_2d]
    certified = summaries["certified-decaying-2d"]
    assert certified.threshold.verdict == "subcritical_quadratic"
    assert certified.threshold.constants["C_star"] > 0.0
    assert {"eta_s_bound", "omega_bound"} <= {c.name for c in certified.bound_checks}
    assert certified.notes == [skipped_r0]
    failed = {name: [c.name for c in s.bound_checks if not c.passed] for name, s in summaries.items()}
    assert "no_blowup" in failed["diverging"]
    assert failed["blowup-reaches-t"] == ["blowup_detected"]
    assert failed["certified-decaying-2d"] == []


@pytest.mark.parametrize("name", CONFIGS)
def test_threshold_rows_read_the_report(name):
    result = _run(name)[2]
    summary, cols = result.summary, result.columns
    if summary.threshold is None:
        return
    bounds = summary.threshold.constants
    # the run's e extremes for the 1D rows, the frames' column maxima for the 2D budgets
    quantity = {
        "min_e_persistence": summary.extrema.get("run_min_e"),
        "max_e_bound": summary.extrema.get("run_max_e"),
        "eta_s_bound": float(cols["max_abs_eta_s"].max()),
        "omega_bound": float(cols["max_abs_omega"].max()),
    }
    for check in summary.bound_checks:
        if check.name in THRESHOLD_BOUNDS:
            key, sign = THRESHOLD_BOUNDS[check.name]
            assert f"{bounds[key]:.6g}" in check.description, check.name
            # rounding is monotone, so the largest excess is the extreme quantity against the bound
            assert check.max_violation == sign * (quantity[check.name] - bounds[key]), check.name


@pytest.mark.parametrize("name", CONFIGS)
def test_checks_and_skip_notes_follow_the_theorems(name):
    summary, _ = _table_and_oracle(name)
    theorems = summary.theorems
    block = summary.as_dict()["theorems"]
    assert block["threshold"] == theorems.threshold
    assert list(block["statements"]) == [
        "quadratic_flocking", "support_bound", "means_oscillation", "convex_flocking_constant",
        "convex_flocking_decaying", "threshold_1d", "threshold_2d_quadratic", "threshold_2d_general",
    ]
    assert all(entry["applies"] == (entry["reason"] is None) for entry in block["statements"].values())

    def statement(key):
        return theorems.threshold if key == "threshold" else key

    names = [c.name for c in summary.bound_checks]
    for check in names:
        if CHECK_STATEMENTS[check] is not None:
            assert theorems.applies(statement(CHECK_STATEMENTS[check])), check
    # and the other way round: a flocking statement that applies has its checks, unless the trend's note says why not
    for check, key in CHECK_STATEMENTS.items():
        skipped = check == "deltaE_sqrt_trend" and TREND_SKIPPED in summary.notes
        if key not in (None, "threshold") and theorems.applies(key) and not skipped:
            assert check in names, check
    for note in summary.notes:
        if note == TREND_SKIPPED:
            assert theorems.applies("convex_flocking_decaying")
            continue
        prefix = next(p for p in SKIP_NOTES if note.startswith(p))
        key = statement(SKIP_NOTES[prefix])
        assert not theorems.applies(key)
        assert note == prefix + theorems.reasons[key]
    if summary.threshold is not None:
        assert theorems.applies(theorems.threshold)
    if theorems.threshold is not None and not theorems.applies(theorems.threshold):
        assert summary.threshold is None and any(n.startswith("classification skipped: ") for n in summary.notes)
