"""Each layer timed on its own, by calling its public function directly.

A traced run times only the layer of its own workload; the timings of the
other workloads' layers read 0 there.  Inputs come from the workload seed.  Each timing is the median of as many
calls as fit in ``BUDGET_S`` seconds (at least ``MIN_CALLS``), after one
untimed call.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from flocklab import diagnostics, dynamics, hydro2d
from flocklab.hydro2d import BumpDensity2D, SineShearVelocity, init_characteristics_2d
from flocklab.kernels import ConstantKernel, PowerLawKernel
from flocklab.potentials import QuadraticPotential

MIN_CALLS = 5
BUDGET_S = 0.08


def _median_us(fn, *args) -> float:
    fn(*args)
    samples = []
    deadline = time.perf_counter() + BUDGET_S
    while len(samples) < MIN_CALLS or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        fn(*args)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e6


def _ensemble(rng, n: int, d: int) -> dynamics.Ensemble:
    return dynamics.Ensemble(
        x=rng.uniform(-1.0, 1.0, size=(n, d)),
        u=rng.uniform(-1.0, 1.0, size=(n, d)),
        m=np.full(n, 1.0 / n),
    )


def _pair_pass(rng) -> dict:
    out = {}
    power_law = PowerLawKernel(c0=1.0, beta=1.0)
    for n in (64, 128, 256, 512):
        for d in (1, 2):
            ens = _ensemble(rng, n, d)
            out[f"dynamics.alignment_force.us.n{n}.d{d}"] = _median_us(
                dynamics.alignment_force, ens.x, ens.u, ens.m, power_law
            )
    return out


def _stepping(rng) -> dict:
    one = _ensemble(rng, 1, 1)
    return {
        "dynamics.step_rk4.us.n1": _median_us(
            dynamics.step_rk4, one, ConstantKernel(1.0), QuadraticPotential(0.2), 1e-4
        )
    }


def _hydro2d(rng) -> dict:
    amplitude = 0.5 * (1.0 + 0.05 * rng.uniform(-1.0, 1.0))
    state = init_characteristics_2d(
        BumpDensity2D(1.0, 1.2), SineShearVelocity(amplitude, 0.25), 16, ConstantKernel(3.0)
    )
    out = {}
    for label, kernel in (("power_law", PowerLawKernel(c0=3.0, beta=0.5)), ("constant", ConstantKernel(3.0))):
        out[f"hydro2d.rhs_2d.us.n256.{label}"] = _median_us(
            hydro2d.rhs_2d, state, kernel, QuadraticPotential(1.0)
        )
    return out


def _diagnostics(rng) -> dict:
    ens = _ensemble(rng, 512, 2)
    return {
        "diagnostics.fluctuations.us.n512.d2": _median_us(diagnostics.fluctuations, ens, 1.0),
        "diagnostics.particle_energy_support.us.n512.d2": _median_us(
            diagnostics.particle_energy_support, ens, QuadraticPotential(1.0)
        ),
        "diagnostics.pair_functional_f.us.n512.d2": _median_us(diagnostics.pair_functional_f, ens, 2.0, 1.0),
    }


# workload -> (its timings, the metric names they give)
TIMINGS = {
    "particles-pairpass": (
        _pair_pass,
        tuple(f"dynamics.alignment_force.us.n{n}.d{d}" for n in (64, 128, 256, 512) for d in (1, 2)),
    ),
    "chars-stepping": (_stepping, ("dynamics.step_rk4.us.n1",)),
    "hydro2d-gradient": (_hydro2d, ("hydro2d.rhs_2d.us.n256.power_law", "hydro2d.rhs_2d.us.n256.constant")),
    "dense-frames": (
        _diagnostics,
        (
            "diagnostics.fluctuations.us.n512.d2",
            "diagnostics.particle_energy_support.us.n512.d2",
            "diagnostics.pair_functional_f.us.n512.d2",
        ),
    ),
}


def layer_timings(workload: str, seed: int) -> dict:
    """Microseconds per call of the workload's own layers, keyed by per-layer metric name."""
    out = {name: 0.0 for _, names in TIMINGS.values() for name in names}
    timings, names = TIMINGS[workload]
    own = timings(np.random.Generator(np.random.Philox(seed)))
    assert own.keys() == set(names)
    out.update(own)
    return out
