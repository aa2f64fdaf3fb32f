"""A right-hand side's ``PairPlan`` against the one-shot pair passes it replaced, bit for bit.

The plan lays out b = [m, m*u] with its m column, the GEMM factors of the
coordinate differences with their constants, the zeroed outputs and the views
of the shared block pool once, and then runs the same operations in the same
order on every stage.  ``oracles.unplanned_*`` are the passes as they were
before, each with everything made anew per call; every output, the sign of
every zero included, must have their bytes, for a plan kept across several
states, for a one-shot plan, and after another pass has regrown the pool.
"""

import numpy as np
import pytest

from flocklab import dynamics
from flocklab.diagnostics import pair_scan
from flocklab.dynamics import Ensemble, PairPlan, alignment_force, conv_phi, kernel_sums
from flocklab.hydro2d import _pair_terms_2d
from flocklab.kernels import FloorClippedKernel, PowerLawKernel

from oracles import unplanned_alignment_force, unplanned_kernel_sums, unplanned_pair_terms_2d

KERNELS = (
    PowerLawKernel(2.0, 0.5),
    PowerLawKernel(1.0, 1.0),
    PowerLawKernel(1.5, 0.7),
    FloorClippedKernel(PowerLawKernel(1.3, 0.8), 0.4),
)


def _bytes(*arrays):
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


def _states(rng, n, d, count=3):
    # the first state's first velocity coordinate is -0.0 throughout, so its blocks add signed zeros
    states = [(rng.uniform(-1.0, 1.0, (n, d)), rng.uniform(-1.0, 1.0, (n, d))) for _ in range(count)]
    states[0][1][:, 0] = -0.0
    return states


def _assert_planned_pass_matches(states, m, kernel, d):
    plan = PairPlan(m, kernel)
    plan_2d = PairPlan(m, kernel, 3) if d == 2 else None
    for x, u in states:
        got = alignment_force(x, u, m, kernel, plan=plan)
        assert _bytes(*got) == _bytes(*unplanned_alignment_force(x, u, m, kernel))
        assert _bytes(*alignment_force(x, u, m, kernel)) == _bytes(*got)
        want = unplanned_kernel_sums(x, m, kernel)
        assert _bytes(conv_phi(x, m, kernel), kernel_sums(x, m, kernel)) == _bytes(want, want)
        if plan_2d is not None:
            want = _bytes(*unplanned_pair_terms_2d(x, u, m, kernel))
            assert _bytes(*_pair_terms_2d(x, u, m, kernel, plan_2d)) == want
            assert _bytes(*_pair_terms_2d(x, u, m, kernel)) == want


@pytest.mark.parametrize("n", [1, 2, 3, 127, 128, 129, 130, 512, 700])
def test_plan_keeps_the_bits_of_the_one_shot_passes(n):
    # one plan per (N, d, kernel) runs three states in turn: a stale b, output or factor would show
    rng = np.random.default_rng(400 + n)
    for d in (1, 2, 3):
        m = rng.uniform(0.1, 1.0, n)
        states = _states(rng, n, d)
        for kernel in KERNELS:
            _assert_planned_pass_matches(states, m, kernel, d)


@pytest.mark.parametrize("n", [3, 129, 512])
def test_plan_keeps_its_bits_after_the_pool_is_regrown(monkeypatch, n):
    # a frame scan at a larger N regrows the pool the plan took its views from; the plan's next
    # stage must work in the new pool, with the oracle's bits
    monkeypatch.setattr(dynamics, "_block_buffers", (np.empty(0), np.empty(0)))
    rng = np.random.default_rng(500 + n)
    m, kernel = rng.uniform(0.1, 1.0, n), PowerLawKernel(1.0, 1.0)
    plans = {d: (PairPlan(m, kernel), PairPlan(m, kernel, 3)) for d in (1, 2)}
    big = 2 * n + 200
    for round_ in range(3):
        for d, (plan, plan_2d) in plans.items():
            (x, u), = _states(rng, n, d, count=1)
            for buf in dynamics._block_buffers:
                buf.fill(np.nan)
            got = alignment_force(x, u, m, kernel, plan=plan)
            assert _bytes(*got) == _bytes(*unplanned_alignment_force(x, u, m, kernel))
            # the stage ran in the shared pool, not in buffers of its own
            assert not np.isnan(dynamics._block_buffers[0]).all()
            if d == 2:
                got = _pair_terms_2d(x, u, m, kernel, plan_2d)
                assert _bytes(*got) == _bytes(*unplanned_pair_terms_2d(x, u, m, kernel))
        ens = Ensemble(x=rng.normal(size=(big + round_, 2)), u=rng.normal(size=(big + round_, 2)),
                       m=np.ones(big + round_))
        pair_scan(ens, 0.8, 1.7, 0.9)
    assert len(dynamics._block_buffers) == 5
