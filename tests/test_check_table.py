"""The runner's table of bound checks against the hand-built checks it replaced.

``runner._check_rows`` yields one row per check and ``runner._integrate``
reduces each row to its ``max_violation``; ``oracles.reference_check_summary``
builds the same checks, notes and rate fit with the code that wrote each
check by hand.  Every preset at 20 output strides and six configs that
reach the remaining branches must give the same checks field for field,
``max_violation`` compared bit for bit, and the same notes and rate fit.
"""

import functools

import pytest

from flocklab import runner
from flocklab.config import parse_config, preset_config, preset_names, with_override
from oracles import reference_check_summary
from test_runner import DIVERGING, GENERAL_2D, SMALL

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
    return with_override(cfg, "run.t", strides * cfg.output_stride * cfg.dt)


def _general_2d():
    # the general-potential hydro2d run of test_runner.test_general_potential_hydro2d_run_checks
    text = GENERAL_2D.replace("n = 64\nt = 1.0", "n = 16\nt = 0.5").replace("k = 4.0", "k = 5.0")
    text = text.replace("a = 1.25\neps = 0.25", "a = 1.0\neps = 0.1")
    return parse_config(text.replace("amplitude = 0.2", "amplitude = 0.1\nrotation = 0.25\nlength = 1.2"))


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
    "sqrt-trend-collapsed": lambda: with_override(_at_strides("convex-flocking-powerlaw", 20), "run.n", 1),
    # predicted to blow up, but stopped long before it does
    "blowup-reaches-t": lambda: with_override(preset_config("blowup-1d-unconditional"), "run.t", 0.5),
}


@functools.cache
def _table_and_oracle(name):
    cfg = CONFIGS[name]()
    an = runner.analyze(cfg)
    result = runner._integrate(cfg, an)
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
    # the extra configs add the two skip notes, the collapsed trend, the failing
    # one-sample rows and a general-potential omega budget to what the presets reach
    summaries = {name: _table_and_oracle(name)[0] for name in CONFIGS if name not in PRESET_CHECKS}
    skipped_r0 = "particle energy bound skipped: no closed-form R0 for this kernel"
    assert skipped_r0 in summaries["confined-no-r0"].notes
    skipped_trend = "sqrt-weighted trend skipped: fewer than 5 frames in the trailing half"
    assert summaries["sqrt-trend-skipped"].notes == [skipped_trend]
    assert "fluctuations fully collapsed" in summaries["sqrt-trend-collapsed"].bound_checks[0].description
    assert summaries["general-2d"].threshold.verdict == "subcritical_general"
    failed = {name: [c.name for c in s.bound_checks if not c.passed] for name, s in summaries.items()}
    assert "no_blowup" in failed["diverging"]
    assert failed["blowup-reaches-t"] == ["blowup_detected"]
