"""Fixtures shared by several test modules."""

import pytest

from flocklab.config import preset_config
from flocklab.hydro1d import BumpDensity, VelocityProfile, init_characteristics, step_1d
from flocklab.kernels import ConstantKernel
from flocklab.potentials import QuadraticPotential
from flocklab.runner import run


@pytest.fixture(scope="session")
def preset_result():
    """``preset_result(name)``: the preset's full-horizon RunResult, run once a session.

    The acceptance criteria, the runner's tests and the golden bytes read the
    same runs; no test writes to one.
    """
    results = {}

    def result(name):
        if name not in results:
            results[name] = run(preset_config(name))
        return results[name]

    return result


@pytest.fixture(scope="session")
def riccati_trajectory():
    """One characteristic under K = 1, A = 0.2 from e0 = 0.3, stepped with dt = 1e-4 to T = 5.

    Returns ``(e0, samples)``: the initial e and the (t, e) pairs every 100
    steps.  A constant kernel and a constant Hessian make e' = -e(e - K) - A
    autonomous, so the samples can be held against ``oracles.riccati_exact``.
    """
    K, A = 1.0, 0.2
    state = init_characteristics(BumpDensity(1.0, 1.0), VelocityProfile("linear", -0.7), 1, ConstantKernel(K))
    e0 = float(state.e[0])
    dt, n_steps = 1e-4, 50_000
    samples = []
    for i in range(1, n_steps + 1):
        state = step_1d(state, ConstantKernel(K), QuadraticPotential(A), dt)
        if i % 100 == 0:
            samples.append((i * dt, float(state.e[0])))
    return e0, samples
