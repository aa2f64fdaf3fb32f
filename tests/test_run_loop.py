"""The runner's step loop against the per-step route it replaced.

``run`` marches the packed flat vector with ``dynamics._rk4_core`` and
builds an Ensemble only for a frame.  ``oracles.reference_integrate`` steps
the same configuration with the public ``step_*`` once per step, as the
loop did before.  The frames, the blow-up bracket and the run's e extremes
must agree bit for bit.  One np.errstate per run must keep an overflowing
run quiet, a direct step keeps its own, and a run builds its right-hand
side once.
"""

import warnings

import pytest

from flocklab import dynamics, hydro1d, hydro2d, runner
from flocklab.config import parse_config, preset_config, serialize_config, with_overrides
from flocklab.diagnostics import frame_columns
from flocklab.dynamics import BlowupSignal, step_rk4
from flocklab.hydro1d import step_1d
from flocklab.runner import analyze, frames_csv, run

from oracles import reference_integrate


def _small(preset, **run_keys):
    return with_overrides(preset_config(preset), [(f"run.{k}", v) for k, v in {"n": 16, **run_keys}.items()])


def _perturbed_2d():
    text = serialize_config(_small("subcritical-2d-constant", t=0.3))
    perturbed = "family = perturbed_quadratic\na = 1.0\neps = 0.25\nkappa = 1.0"
    return parse_config(text.replace("family = quadratic\na = 1.0", perturbed))


# name -> (config, whether the run blows up); dt = 1e-3 makes i * dt differ from a sum of dt steps
CASES = {
    "particles": (lambda: _small("quadratic-flocking-2d", t=0.3), False),
    "hydro1d": (lambda: _small("smooth-1d-guaranteed", t=0.3), False),
    "hydro2d": (lambda: _small("subcritical-2d-constant", t=0.3), False),
    "hydro2d-perturbed": (_perturbed_2d, False),
    "stride-remainder": (lambda: _small("smooth-1d-guaranteed", t=0.35), False),  # 350 steps, stride 100
    "mid-run-blowup": (lambda: _small("blowup-1d-unconditional", t=2.0), True),  # in [1.062, 1.063]
    "first-step-blowup": (lambda: _small("blowup-1d-unconditional", t=50.0, dt=5.0), True),
}


@pytest.mark.parametrize("case", CASES)
def test_run_matches_the_per_step_route_bit_for_bit(case):
    build, blows_up = CASES[case]
    cfg = build()
    result = run(cfg)
    frames, blowup, extrema = reference_integrate(cfg, analyze(cfg))
    assert (result.summary.blowup is not None) == blows_up
    assert result.csv() == frames_csv(frame_columns(frames))
    assert repr(result.summary.blowup) == repr(blowup)
    assert repr(result.summary.extrema) == repr(extrema)


def test_the_cases_reach_what_they_name():
    stride = CASES["stride-remainder"][0]()
    assert stride.n_steps % stride.output_stride != 0
    assert run(CASES["first-step-blowup"][0]()).summary.blowup == (0.0, 5.0)
    mid = run(CASES["mid-run-blowup"][0]())
    lo, _ = mid.summary.blowup
    # the last finite state is a frame, between two strides
    assert 0.0 < lo and mid.frames[-1].t == lo and round(lo * 1e3) % 100 != 0


@pytest.mark.parametrize("step", [step_1d, step_rk4], ids=["step_1d", "step_rk4"])
def test_a_direct_step_that_overflows_warns_nothing(step):
    # dt = 1e100 overflows float64 inside the stages of the first step; a smaller dt leaves the caps first
    cfg = _small("smooth-1d-guaranteed", t=1e101, dt=1e100)
    state = analyze(cfg).state
    if step is step_rk4:  # the particle part of the same state
        state = dynamics.Ensemble(x=state.x, u=state.u, m=state.m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowupSignal):
            step(state, cfg.kernel, cfg.potential, cfg.dt)


BUILDERS = {
    "particles": (dynamics, "_step_rhs_u", lambda: _small("quadratic-flocking-2d", t=0.01)),
    "hydro1d": (hydro1d, "_step_rhs_1d", lambda: _small("smooth-1d-guaranteed", t=0.01)),
    "hydro2d": (hydro2d, "_step_rhs_2d", lambda: _small("subcritical-2d-constant", t=0.01)),
}


@pytest.mark.parametrize("mode", BUILDERS)
def test_a_run_builds_its_right_hand_side_once(mode, monkeypatch):
    module, name, build = BUILDERS[mode]
    built, original = [], getattr(module, name)

    def counted(*args):
        built.append(args)
        return original(*args)

    for owner in (module, runner):  # the runner's loop and the public step both see the counted builder
        monkeypatch.setattr(owner, name, counted)
    cfg = build()
    assert cfg.mode == mode and cfg.n_steps == 10
    run(cfg)
    assert len(built) == 1
