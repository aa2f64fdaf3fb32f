"""Relabelling the agents permutes the right-hand sides the same way (property tests)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from flocklab.dynamics import _rhs_u
from flocklab.hydro1d import _rhs_arrays_1d
from flocklab.kernels import ConstantKernel, FloorClippedKernel, PowerLawKernel
from flocklab.potentials import PerturbedQuadraticPotential, QuadraticPotential, ZeroPotential

KERNELS = st.sampled_from([
    ConstantKernel(1.3),
    PowerLawKernel(1.0, 1.0),
    PowerLawKernel(2.0, 0.5),
    PowerLawKernel(1.5, 0.8),
    FloorClippedKernel(PowerLawKernel(1.3, 0.8), 0.4),
])
POTENTIALS = st.sampled_from([
    QuadraticPotential(0.8),
    PerturbedQuadraticPotential(1.0, 0.3, 2.0),
    ZeroPotential(),
])


def _vectors(n, d, lo, hi):
    return hnp.arrays(float, (n, d), elements=st.floats(lo, hi, allow_subnormal=False))


@st.composite
def ensembles(draw, dims=(1, 2)):
    """(x, u, m, permutation) of 1 to 12 agents."""
    n = draw(st.integers(1, 12))
    d = draw(st.sampled_from(dims))
    x = draw(_vectors(n, d, -2.0, 2.0))
    u = draw(_vectors(n, d, -2.0, 2.0))
    m = draw(hnp.arrays(float, n, elements=st.floats(0.1, 1.0)))
    return x, u, m, np.array(draw(st.permutations(range(n))), dtype=int)


def _outs(*arrays):
    return tuple(map(np.empty_like, arrays))


def _assert_permuted(got, want, perm):
    scale = max(1.0, float(np.abs(want).max()))
    assert np.abs(got - want[perm]).max() <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(ensembles(), KERNELS, POTENTIALS)
def test_particle_rhs_is_permutation_equivariant(ens, kernel, potential):
    x, u, m, perm = ens
    want = _rhs_u(x, u, m, kernel, potential, np.empty_like(u))
    _assert_permuted(_rhs_u(x[perm], u[perm], m[perm], kernel, potential, np.empty_like(u)), want, perm)


@settings(max_examples=60, deadline=None)
@given(ensembles(dims=(1,)), st.data(), KERNELS, POTENTIALS)
def test_1d_characteristic_rhs_is_permutation_equivariant(ens, data, kernel, potential):
    x, u, m, perm = ens
    n = x.shape[0]
    e = data.draw(hnp.arrays(float, n, elements=st.floats(-3.0, 3.0, allow_subnormal=False)))
    rho = data.draw(hnp.arrays(float, n, elements=st.floats(0.0, 2.0, allow_subnormal=False)))
    want = _rhs_arrays_1d(x, u, e, rho, m, kernel, potential, _outs(x, u, e, rho))
    got = _rhs_arrays_1d(x[perm], u[perm], e[perm], rho[perm], m[perm], kernel, potential, _outs(x, u, e, rho))
    for g, w in zip(got, want):
        _assert_permuted(g, w, perm)
