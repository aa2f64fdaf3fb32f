"""How a 2D state stores its velocity gradient, and what it shows.

grad_u is stored component-major in the state's flat vector, (2, 2, N), so
each entry of the 2D stage's 2x2 algebra is one contiguous row of the N
characteristics; the state, its copies and frames show it as (N, 2, 2),
and ``rhs_2d`` returns the stage's derivative in that shape too.
"""

import copy
import pickle

import numpy as np
import pytest

from flocklab.dynamics import Ensemble, _packed
from flocklab.hydro2d import _step_rhs_2d, rhs_2d, step_2d
from flocklab.kernels import ConstantKernel, FloorClippedKernel, PowerLawKernel
from flocklab.potentials import PerturbedQuadraticPotential, QuadraticPotential

from oracles import stage_rhs_arrays_2d


def _state(n=7, seed=3):
    rng = np.random.default_rng(seed)
    return Ensemble(
        x=rng.uniform(-1.0, 1.0, (n, 2)),
        u=rng.uniform(-1.0, 1.0, (n, 2)),
        m=rng.uniform(0.1, 1.0, n),
        grad_u=rng.uniform(-1.0, 1.0, (n, 2, 2)),
    )


def test_grad_u_is_stored_component_major():
    state = _state()
    n = state.n
    assert state.flat[4 * n:].tobytes() == state.grad_u.transpose(1, 2, 0).ravel().tobytes()
    assert state.flat[: 4 * n].tobytes() == np.concatenate([state.x.ravel(), state.u.ravel()]).tobytes()


def test_grad_u_shows_the_values_it_was_given():
    base, given = _state(), np.random.default_rng(4).uniform(-1.0, 1.0, (7, 2, 2))
    state = Ensemble(x=base.x, u=base.u, m=base.m, grad_u=given)
    assert state.grad_u.shape == (7, 2, 2) and state.grad_u.tobytes() == given.tobytes()
    stepped = step_2d(state, PowerLawKernel(1.0, 0.5), QuadraticPotential(1.0), 0.01)
    assert stepped.grad_u.shape == (7, 2, 2)
    assert stepped.grad_u.tobytes() == stepped.flat[28:].reshape(2, 2, 7).transpose(2, 0, 1).tobytes()
    for shown in (state, stepped):
        frame = _packed(shown, shown.flat.copy(), shown.t)
        for other in (copy.deepcopy(shown), pickle.loads(pickle.dumps(shown)), frame):
            assert other.grad_u.shape == (7, 2, 2)
            assert other.grad_u.tobytes() == shown.grad_u.tobytes()
            assert other.flat.tobytes() == shown.flat.tobytes()


KERNELS = {
    "constant": ConstantKernel(1.5),
    "power-law": PowerLawKernel(2.0, 0.5),
    "floor-clipped": FloorClippedKernel(PowerLawKernel(1.3, 0.8), 0.4),
}
POTENTIALS = {"quadratic": QuadraticPotential(0.8), "perturbed": PerturbedQuadraticPotential(1.0, 0.3, 2.0)}


@pytest.mark.parametrize("potential", POTENTIALS)
@pytest.mark.parametrize("kernel", KERNELS)
def test_rhs_2d_shows_the_stage_route_on_stored_views(kernel, potential):
    kernel, potential = KERNELS[kernel], POTENTIALS[potential]
    state = _state()
    n = state.n
    # the stage route: the right-hand side on grad_u as a stage stores it, (2, 2, N)
    stored = np.ascontiguousarray(state.grad_u.transpose(1, 2, 0))
    outs = (np.empty((n, 2)), np.empty((n, 2)), np.empty((2, 2, n)))
    _step_rhs_2d(state.m, kernel, potential)(state.x, state.u, stored, *outs)
    got = rhs_2d(state, kernel, potential)
    assert [a.shape for a in got] == [(n, 2), (n, 2), (n, 2, 2)]
    assert got[0].tobytes() == outs[0].tobytes() and got[1].tobytes() == outs[1].tobytes()
    assert got[2].tobytes() == outs[2].transpose(2, 0, 1).tobytes()
    # and the per-stage formula, which reads and writes (N, 2, 2)
    reference = tuple(np.empty_like(a) for a in (state.x, state.u, state.grad_u))
    stage_rhs_arrays_2d(state.x, state.u, state.grad_u, state.m, kernel, potential, reference)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in reference]
