"""The packed in-place RK4 driver against the list-comprehension reference.

``oracles.reference_rk4`` with the allocating ``reference_rhs_*`` is the
driver and the right-hand sides as they were before the state was packed
into one flat vector.  The packed driver must give the same bits, raise the
same BlowupSignal, never write into its input state, and keep RK4's fourth
order in every mode.
"""

import copy
import math
import pickle

import numpy as np
import pytest

from flocklab.config import preset_config, with_overrides
from flocklab.dynamics import BlowupSignal, Ensemble, advance_rk4, step_rk4
from flocklab.hydro1d import BumpDensity, VelocityProfile, init_characteristics, step_1d
from flocklab.hydro2d import _step_rhs_2d, init_characteristics_2d, step_2d
from flocklab.kernels import ConstantKernel, PowerLawKernel
from flocklab.potentials import PerturbedQuadraticPotential, QuadraticPotential, ZeroPotential
from flocklab.runner import _integrate, analyze

from oracles import (
    oscillator_exact,
    reference_rhs_1d,
    reference_rhs_2d,
    reference_rhs_particles,
    reference_rk4,
    riccati_exact,
)

STEPS = {"particles": step_rk4, "hydro1d": step_1d, "hydro2d": step_2d}
REFERENCE_RHS = {
    "particles": reference_rhs_particles,
    "hydro1d": reference_rhs_1d,
    "hydro2d": reference_rhs_2d,
}


def _mode(state):
    return "hydro1d" if state.e is not None else "hydro2d" if state.grad_u is not None else "particles"


def _particles(d):
    rng = np.random.default_rng(40 + d)
    n = 12
    return Ensemble(x=rng.uniform(-1.0, 1.0, (n, d)), u=rng.uniform(-1.0, 1.0, (n, d)), m=rng.uniform(0.1, 1.0, n))


def _chars_1d():
    return init_characteristics(
        BumpDensity(1.0, 1.0), VelocityProfile("sinusoidal", 0.4), 16, ConstantKernel(1.0)
    )


def _chars_2d():
    return init_characteristics_2d(
        BumpDensity(1.0, 1.2), VelocityProfile("sinusoidal", 0.5, 0.25), 5, ConstantKernel(3.0)
    )


POWER_LAW = PowerLawKernel(1.0, 0.5)
PERTURBED = PerturbedQuadraticPotential(1.0, 0.3, 2.0)
CASES = {
    "particles-d1-constant": (lambda: _particles(1), ConstantKernel(1.5), QuadraticPotential(0.8)),
    "particles-d1-power-law": (lambda: _particles(1), POWER_LAW, PERTURBED),
    "particles-d2-constant": (lambda: _particles(2), ConstantKernel(1.5), ZeroPotential()),
    "particles-d2-power-law": (lambda: _particles(2), POWER_LAW, QuadraticPotential(0.8)),
    "hydro1d-constant": (_chars_1d, ConstantKernel(1.0), QuadraticPotential(0.2)),
    "hydro1d-perturbed": (_chars_1d, ConstantKernel(1.0), PERTURBED),
    "hydro1d-power-law": (_chars_1d, POWER_LAW, ZeroPotential()),
    "hydro2d-constant": (_chars_2d, ConstantKernel(3.0), QuadraticPotential(1.0)),
    "hydro2d-power-law": (_chars_2d, PowerLawKernel(3.0, 0.5), QuadraticPotential(1.0)),
    "hydro2d-perturbed": (_chars_2d, ConstantKernel(3.0), PERTURBED),
}


def _hex(state):
    """Every evolved value and the time, as float.hex strings."""
    return [float(state.t).hex()] + [
        (name, [float(v).hex() for v in arr.ravel()]) for name, arr in state.evolved().items()
    ]


@pytest.mark.parametrize("case", CASES)
def test_packed_driver_matches_the_reference_bit_for_bit(case):
    build, kernel, potential = CASES[case]
    packed = reference = build()
    mode = _mode(packed)
    for _ in range(20):
        packed = STEPS[mode](packed, kernel, potential, 0.01)
        reference = reference_rk4(reference, REFERENCE_RHS[mode](reference.m, kernel, potential), 0.01)
    assert _hex(packed) == _hex(reference)


def _nan_in_grad_u(state, kernel, potential, dt):
    """Both drivers on a 2D right-hand side whose grad_u derivative carries a NaN."""

    rhs = _step_rhs_2d(state.m, kernel, potential)

    def packed_f(x, u, g, *out):
        rhs(x, u, g, *out)
        out[2][1, 0, 0] = math.nan  # entry (1, 0) of characteristic 0, as a stage stores grad_u: (2, 2, N)

    reference_f = reference_rhs_2d(state.m, kernel, potential)

    def poisoned(x, u, g):
        dx, du, dg = reference_f(x, u, g)
        dg[0, 1, 0] = math.nan
        return dx, du, dg

    return (lambda: advance_rk4(state, packed_f, dt)), (lambda: reference_rk4(state, poisoned, dt))


def _drivers(state, kernel, potential, dt):
    mode = _mode(state)
    return (
        lambda: STEPS[mode](state, kernel, potential, dt),
        lambda: reference_rk4(state, REFERENCE_RHS[mode](state.m, kernel, potential), dt),
    )


BLOWUPS = {
    "x past STATE_CAP": lambda: _drivers(
        Ensemble(x=[[1.0e8]], u=[[0.0]], m=[1.0], t=0.5), ConstantKernel(1.0), QuadraticPotential(1.0e6), 1.0
    ),
    "e past E_BLOWUP_CAP": lambda: _drivers(
        Ensemble(x=[[0.0]], u=[[0.0]], m=[1.0], e=[-2.0e6], rho=[1.0]), ConstantKernel(1.0), ZeroPotential(), 1e-3
    ),
    "negative rho": lambda: _drivers(
        Ensemble(x=[[0.0]], u=[[0.0]], m=[1.0], e=[10.0], rho=[1.0]), ConstantKernel(1.0), ZeroPotential(), 0.5
    ),
    "NaN in grad_u": lambda: _nan_in_grad_u(_chars_2d(), ConstantKernel(3.0), QuadraticPotential(1.0), 0.01),
}
REASONS = {
    "x past STATE_CAP": "|x| exceeded 1e+09 or non-finite",
    "e past E_BLOWUP_CAP": "|e| exceeded 1e+06 or non-finite",
    "negative rho": "density left the nonnegative range",
    "NaN in grad_u": "|grad_u| exceeded 1e+09 or non-finite",
}


@pytest.mark.parametrize("case", BLOWUPS)
def test_blowup_signal_matches_the_reference(case):
    packed, reference = BLOWUPS[case]()
    signals = []
    for driver in (packed, reference):
        with pytest.raises(BlowupSignal) as info:
            driver()
        signals.append((info.value.reason, info.value.t_lo, info.value.t_hi))
    assert signals[0] == signals[1]
    assert signals[0][0] == REASONS[case]


def _copies(state):
    return {name: arr.copy() for name, arr in state.evolved().items()}


def _unchanged(state, copies):
    return all(np.array_equal(arr, copies[name]) for name, arr in state.evolved().items())


@pytest.mark.parametrize("preset", ["riccati-oracle", "subcritical-2d-constant", "convex-flocking-constant"])
def test_run_never_writes_the_analyzed_state(preset):
    cfg = preset_config(preset)
    cfg = with_overrides(cfg, [("run.t", 20 * cfg.dt)])
    an = analyze(cfg)
    before = _copies(an.state)
    _integrate(cfg, an)
    assert _unchanged(an.state, before)


@pytest.mark.parametrize("case", ["particles-d2-power-law", "hydro1d-constant", "hydro2d-constant"])
def test_states_own_their_arrays(case):
    build, kernel, potential = CASES[case]
    first = build()
    second = STEPS[_mode(first)](first, kernel, potential, 0.01)
    third = STEPS[_mode(first)](second, kernel, potential, 0.01)
    before, kept = _copies(first), _copies(third)
    for arr in second.evolved().values():
        arr[...] = 7.0
    assert _unchanged(first, before) and _unchanged(third, kept)
    assert not np.shares_memory(second.flat, first.flat) and not np.shares_memory(third.flat, second.flat)
    with pytest.raises(AttributeError, match="view of the packed state"):
        second.x = np.zeros_like(second.x)
    for copied in (copy.deepcopy(second), pickle.loads(pickle.dumps(second))):
        assert _hex(copied) == _hex(second)
        assert all(np.shares_memory(arr, copied.flat) for arr in copied.evolved().values())


def _orders(errors):
    return [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]


def _integrate_to(state, step, kernel, potential, dt, t_final):
    for _ in range(int(round(t_final / dt))):
        state = step(state, kernel, potential, dt)
    return state


def test_rk4_order_particles_oscillator():
    # one agent in U = a x^2 / 2 against the oscillator's closed form
    a, t_final = 2.0, 2.0
    start = Ensemble(x=[[1.0]], u=[[0.5]], m=[1.0])
    x_exact, u_exact = oscillator_exact(t_final, [1.0], [0.5], a)
    errors = []
    for dt in (0.1, 0.05, 0.025):
        end = _integrate_to(start, step_rk4, ConstantKernel(1.0), QuadraticPotential(a), dt, t_final)
        errors.append(max(abs(end.x[0, 0] - x_exact[0]), abs(end.u[0, 0] - u_exact[0])))
    assert all(3.7 <= p <= 4.3 for p in _orders(errors)), _orders(errors)


def test_rk4_order_hydro1d_riccati():
    # one characteristic: e' = -e (e - K) - A against its closed form
    K, A, t_final = 1.0, 0.2, 5.0
    start = init_characteristics(BumpDensity(1.0, 1.0), VelocityProfile("linear", -0.7), 1, ConstantKernel(K))
    errors = []
    for dt in (0.2, 0.1, 0.05):
        end = _integrate_to(start, step_1d, ConstantKernel(K), QuadraticPotential(A), dt, t_final)
        errors.append(abs(end.e[0] - float(riccati_exact(t_final, 0.3, K, A))))
    assert all(3.7 <= p <= 4.3 for p in _orders(errors)), _orders(errors)


def test_rk4_order_hydro2d_self_convergence():
    # no closed form: differences of successive halvings shrink by 2^4
    start = init_characteristics_2d(
        BumpDensity(1.0, 1.2), VelocityProfile("sinusoidal", 0.5, 0.25), 3, PowerLawKernel(3.0, 0.5)
    )
    kernel, potential, t_final = PowerLawKernel(3.0, 0.5), PERTURBED, 1.0
    ends = [
        _integrate_to(start, step_2d, kernel, potential, dt, t_final).flat for dt in (0.2, 0.1, 0.05, 0.025)
    ]
    errors = [np.abs(coarse - fine).max() for coarse, fine in zip(ends, ends[1:])]
    assert all(3.7 <= p <= 4.3 for p in _orders(errors)), _orders(errors)
