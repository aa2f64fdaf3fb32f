"""Fixtures shared by several test modules."""

import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor

import pytest

from flocklab.config import preset_config, preset_names
from flocklab.hydro1d import BumpDensity, VelocityProfile, init_characteristics, step_1d
from flocklab.kernels import ConstantKernel
from flocklab.potentials import QuadraticPotential
from flocklab.runner import run

# the presets that take longest, longest first (one process, one OpenBLAS thread: 18.5, 13.2, 8.6, 4.9
# and 4.2 s), so that two workers finish together; the rest follow in preset order
_SLOWEST = (
    "quadratic-flocking-1d",
    "convex-flocking-powerlaw",
    "quadratic-flocking-2d",
    "subcritical-2d-constant",
    "smooth-1d-guaranteed",
)


@pytest.fixture(scope="session", autouse=True)
def _preset_runs(request):
    """Each preset's run, as a future, started at session start when a collected test reads one.

    The runs go to two forkserver worker processes, longest first, while the
    other tests run; their results come back pickled, states through
    ``Ensemble.__reduce__``.  Under a tracer (``sys.gettrace()``, as in
    ``tools/line_trace.py``) each preset runs in this process, when first read.
    """
    read = any("preset_result" in item.fixturenames for item in request.session.items)
    if sys.gettrace() is not None or not read:
        yield None
        return
    order = [*_SLOWEST, *(name for name in preset_names() if name not in _SLOWEST)]
    pool = ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("forkserver"))
    try:
        yield {name: pool.submit(run, preset_config(name)) for name in order}
    finally:
        pool.shutdown(cancel_futures=True)  # no test reads a run after this: drop those not started


@pytest.fixture(scope="session")
def preset_result(_preset_runs):
    """``preset_result(name)``: the preset's full-horizon RunResult, run once a session.

    The acceptance criteria, the runner's tests and the golden bytes read the
    same runs; no test writes to one.
    """
    results = {}

    def result(name):
        if name not in results:
            # a preset takes at most about 20 s on one core: the timeout only ends a hung worker
            results[name] = _preset_runs[name].result(timeout=600) if _preset_runs else run(preset_config(name))
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
