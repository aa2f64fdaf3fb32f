"""Each step's right-hand side against the per-stage right-hand sides it replaced.

A step decides its kernel, potential and constants (total mass, phi*rho of a
constant kernel, a constant Hessian) once, and keeps the result for the
states stepped after it while the masses, kernel and potential stay the same
objects.  ``oracles.stage_step`` drives the per-stage forms, which decide all
of that on every stage, through the same RK4 driver: both routes must give
the same bytes, the same blow-up bracket and the same reason.
"""

from pathlib import Path

import numpy as np
import pytest

from flocklab import dynamics, hydro2d
from flocklab.dynamics import BlowupSignal, Ensemble, step_rk4
from flocklab.hydro1d import BumpDensity, VelocityProfile, init_characteristics, step_1d
from flocklab.hydro2d import init_characteristics_2d, step_2d
from flocklab.kernels import ConstantKernel, FloorClippedKernel, PowerLawKernel
from flocklab.potentials import PerturbedQuadraticPotential, QuadraticPotential, ZeroPotential

from oracles import stage_step

BENCH = Path(__file__).resolve().parent.parent / "bench"

KERNELS = {
    "constant": ConstantKernel(1.5),
    "power-law-0.5": PowerLawKernel(2.0, 0.5),
    "power-law-1": PowerLawKernel(1.0, 1.0),
    "power-law-0.7": PowerLawKernel(1.5, 0.7),
    "floor-clipped": FloorClippedKernel(PowerLawKernel(1.3, 0.8), 0.4),
}
POTENTIALS = {
    "quadratic": QuadraticPotential(0.8),
    "perturbed": PerturbedQuadraticPotential(1.0, 0.3, 2.0),
    "zero": ZeroPotential(),
}


def _particles(d):
    rng = np.random.default_rng(70 + d)
    n = 9
    return Ensemble(x=rng.uniform(-1.0, 1.0, (n, d)), u=rng.uniform(-1.0, 1.0, (n, d)), m=rng.uniform(0.1, 1.0, n))


MODES = {
    "particles-d1": (lambda kernel: _particles(1), step_rk4),
    "particles-d2": (lambda kernel: _particles(2), step_rk4),
    "hydro1d": (
        lambda kernel: init_characteristics(BumpDensity(1.0, 1.0), VelocityProfile("sinusoidal", 0.4), 12, kernel),
        step_1d,
    ),
    "hydro2d": (
        lambda kernel: init_characteristics_2d(
            BumpDensity(1.0, 1.2), VelocityProfile("sinusoidal", 0.5, 0.25), 4, kernel
        ),
        step_2d,
    ),
}


def _bytes(state):
    return float(state.t).hex(), state.flat.tobytes()


@pytest.mark.parametrize("potential", POTENTIALS)
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("mode", MODES)
def test_step_matches_the_per_stage_route_bit_for_bit(mode, kernel, potential):
    build, step = MODES[mode]
    kernel, potential = KERNELS[kernel], POTENTIALS[potential]
    state, reference = build(kernel), build(kernel)
    for _ in range(6):
        state = step(state, kernel, potential, 0.02)
        reference = stage_step(reference, kernel, potential, 0.02)
        assert _bytes(state) == _bytes(reference)


def _until_blowup(step, state, kernel, potential, dt):
    """The last finite state and the signal of the step that left the trusted range."""
    for _ in range(10_000):
        try:
            state = step(state, kernel, potential, dt)
        except BlowupSignal as signal:
            return state, (signal.t_lo, signal.t_hi, signal.reason)
    raise AssertionError("no blow-up in 10,000 steps")


@pytest.mark.parametrize("kernel", ["constant", "power-law-0.5"])
def test_blowup_matches_the_per_stage_route(kernel):
    # a supercritical potential (a > (m0 phi+)^2 / 4): e crosses -E_BLOWUP_CAP in finite time
    kernel, potential = KERNELS[kernel], QuadraticPotential(5.0)
    build = lambda: init_characteristics(BumpDensity(1.0, 1.0), VelocityProfile("sinusoidal", 1.0), 16, kernel)
    last, signal = _until_blowup(step_1d, build(), kernel, potential, 0.01)
    reference_last, reference_signal = _until_blowup(stage_step, build(), kernel, potential, 0.01)
    assert signal == reference_signal
    assert signal[2] == "|e| exceeded 1e+06 or non-finite"
    assert _bytes(last) == _bytes(reference_last)


def test_a_chain_builds_its_right_hand_side_again_when_the_arguments_change():
    # the kept right-hand side follows the kernel, the potential and the masses of each call
    first, second = KERNELS["constant"], KERNELS["power-law-0.7"]
    quadratic, perturbed = POTENTIALS["quadratic"], POTENTIALS["perturbed"]
    schedule = [(first, quadratic), (first, quadratic), (second, quadratic), (second, perturbed), (first, quadratic)]
    state = reference = _particles(2)
    for kernel, potential in schedule:
        state = step_rk4(state, kernel, potential, 0.02)
        reference = stage_step(reference, kernel, potential, 0.02)
        assert _bytes(state) == _bytes(reference)
    heavier = state.m * 2.0
    state.m = reference.m = heavier
    assert _bytes(step_rk4(state, first, quadratic, 0.02)) == _bytes(stage_step(reference, first, quadratic, 0.02))


class _CountedMasses(np.ndarray):
    """Masses that count how often they are summed."""

    sums = 0

    def sum(self, *args, **kwargs):
        _CountedMasses.sums += 1
        return super().sum(*args, **kwargs)


@pytest.mark.parametrize("mode", MODES)
def test_a_constant_kernel_step_sums_the_masses_at_most_once(mode):
    # the masses never change, so a step has no reason to reduce them on each of its four stages
    build, step = MODES[mode]
    kernel, potential = KERNELS["constant"], POTENTIALS["quadratic"]
    state = build(kernel)
    state.m = state.m.view(_CountedMasses)
    _CountedMasses.sums = 0
    steps = 5
    for _ in range(steps):
        state = step(state, kernel, potential, 0.02)
    assert 1 <= _CountedMasses.sums <= steps


@pytest.mark.parametrize("mode", MODES)
def test_a_constant_kernel_chain_builds_its_alignment_once(mode, monkeypatch):
    # one alignment per right-hand side, passed to every stage: a stage that builds its own counts here too
    build, step = MODES[mode]
    kernel, potential = KERNELS["constant"], POTENTIALS["quadratic"]
    built, alignment_plan = [], dynamics.alignment_plan

    def counted(m, kernel):
        built.append(kernel)
        return alignment_plan(m, kernel)

    monkeypatch.setattr(dynamics, "alignment_plan", counted)
    monkeypatch.setattr(hydro2d, "alignment_plan", counted)
    state = build(kernel)
    for _ in range(3):
        state = step(state, kernel, potential, 0.02)
    assert built == [kernel]


def test_a_traced_constant_kernel_step_records_its_alignment_stages(monkeypatch):
    # each stage runs the kept O(N) alignment through dynamics.alignment_force: 4 spans, no pair entries
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    with spans.Tracer() as tracer:
        step_rk4(_particles(2), KERNELS["constant"], POTENTIALS["quadratic"], 0.02)
    assert tracer.names.count("dynamics.alignment_force") == 4
    assert tracer.counts["dynamics.alignment_force"] == 0
