"""The benchmark's tracer and per-layer timings still find every flocklab name they bind.

``bench/spans.py`` rebinds named functions in flocklab's modules and
``bench/layer_timings.py`` calls public functions with fixed signatures, so
a refactor that drops or re-signatures one of them fails here, not only
under ``bench/run.py --trace 1``.
"""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layer_timings
    import spans

    return spans, layer_timings


def test_tracer_binds_and_layer_timings_run(bench_modules):
    import numpy as np

    from flocklab import hydro2d, runner

    spans, layer_timings = bench_modules
    originals = {name: getattr(runner, name) for name in spans.BINDINGS["flocklab.runner"]}
    with spans.Tracer() as tracer:
        assert runner.step_rk4 is not originals["step_rk4"]
        rng = np.random.Generator(np.random.Philox(1))
        stepping = layer_timings._stepping(rng)
        gradient = layer_timings._hydro2d(rng)
    assert set(stepping) == {"dynamics.step_rk4.us.n1"}
    assert set(gradient) == {"hydro2d.rhs_2d.us.n256.power_law", "hydro2d.rhs_2d.us.n256.constant"}
    assert all(v > 0.0 for v in (*stepping.values(), *gradient.values()))
    # rhs_2d reaches the pair layer and the potential through the rebound module globals
    assert {"dynamics.alignment_force", "potentials.grad_at"} <= set(tracer.names)
    assert {name: getattr(runner, name) for name in originals} == originals
    assert hydro2d.alignment_force.__module__ == "flocklab.dynamics"
    assert not hasattr(hydro2d.alignment_force, "__wrapped__")


def test_layer_timings_call_the_diagnostics_and_the_pair_pass(bench_modules):
    import numpy as np

    _, layer_timings = bench_modules
    rng = np.random.Generator(np.random.Philox(1))
    for workload in ("dense-frames", "particles-pairpass"):
        timings, names = layer_timings.TIMINGS[workload]
        assert timings in (layer_timings._diagnostics, layer_timings._pair_pass)
        out = timings(rng)
        assert set(out) == set(names)
        assert all(v > 0.0 for v in out.values())


def test_a_planned_step_keeps_the_pair_layer_traced(bench_modules):
    # each stage runs its kept pair-pass plan through dynamics.alignment_force, the name the tracer
    # rebinds, so the pair layer keeps its spans and its N^2 pair entries per stage
    import numpy as np

    from flocklab.dynamics import Ensemble, step_rk4
    from flocklab.kernels import PowerLawKernel
    from flocklab.potentials import QuadraticPotential

    spans, _ = bench_modules
    n = 40
    rng = np.random.default_rng(3)
    ens = Ensemble(x=rng.normal(size=(n, 2)), u=rng.normal(size=(n, 2)), m=np.full(n, 1.0 / n))
    with spans.Tracer() as tracer:
        step_rk4(ens, PowerLawKernel(1.0, 1.0), QuadraticPotential(1.0), 0.01)
    assert "dynamics.alignment_force" in tracer.names
    assert tracer.counts["dynamics.alignment_force"] == 4 * n * n
