"""Symmetries of the particle and 1D characteristic right-hand sides (property tests).

Relabelling the agents permutes the right-hand sides the same way.  The
alignment force sum_j m_j phi(|x_i - x_j|)(u_j - u_i) does not change when
every position moves by c (zero potential) or every velocity by v, and
sum_i m_i F_i = 0.  The particle right-hand side dissipates energy at the
rate of the pair sum: sum_i m_i u_i . du_i + sum_i m_i grad U(x_i) . u_i =
-1/2 sum_ij m_i m_j phi_ij |u_i - u_j|^2.  All but the first hold up to
round-off, bounded a priori from the operations of one computed force
(``_force_error``) and of the sums that the tests form.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from flocklab.dynamics import _step_rhs_u
from flocklab.hydro1d import _step_rhs_1d
from flocklab.kernels import ConstantKernel, FloorClippedKernel, PowerLawKernel, kernel_eval
from flocklab.potentials import PerturbedQuadraticPotential, QuadraticPotential, ZeroPotential, grad_at
from oracles import dense_dissipation

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


def _characteristics(data, n):
    """(e, rho) of n characteristics."""
    e = data.draw(hnp.arrays(float, n, elements=st.floats(-3.0, 3.0, allow_subnormal=False)))
    rho = data.draw(hnp.arrays(float, n, elements=st.floats(0.0, 2.0, allow_subnormal=False)))
    return e, rho


def _shifts(data, d):
    """One (1, d) position or velocity shift."""
    return data.draw(_vectors(1, d, -2.0, 2.0))


def _du(x, u, m, kernel, potential):
    """du/dt of the particle system: one stage of the step's right-hand side."""
    du = np.empty_like(u)
    _step_rhs_u(m, kernel, potential)(x, u, np.empty_like(u), du)
    return du


def _rhs_1d(x, u, e, rho, m, kernel, potential):
    """(dx, du, de, drho) along 1D characteristics: one stage of the step's right-hand side."""
    out = tuple(map(np.empty_like, (x, u, e, rho)))
    _step_rhs_1d(m, kernel, potential)(x, u, e, rho, *out)
    return out


def _assert_permuted(got, want, perm):
    scale = max(1.0, float(np.abs(want).max()))
    assert np.abs(got - want[perm]).max() <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(ensembles(), KERNELS, POTENTIALS)
def test_particle_rhs_is_permutation_equivariant(ens, kernel, potential):
    x, u, m, perm = ens
    want = _du(x, u, m, kernel, potential)
    _assert_permuted(_du(x[perm], u[perm], m[perm], kernel, potential), want, perm)


@settings(max_examples=60, deadline=None)
@given(ensembles(dims=(1,)), st.data(), KERNELS, POTENTIALS)
def test_1d_characteristic_rhs_is_permutation_equivariant(ens, data, kernel, potential):
    x, u, m, perm = ens
    e, rho = _characteristics(data, x.shape[0])
    want = _rhs_1d(x, u, e, rho, m, kernel, potential)
    got = _rhs_1d(x[perm], u[perm], e[perm], rho[perm], m[perm], kernel, potential)
    for g, w in zip(got, want):
        _assert_permuted(g, w, perm)


# eps is twice the unit round-off, which covers the second-order terms of the
# bounds below; ETA is the absolute error of a product that underflows
EPS = np.finfo(float).eps
ETA = np.finfo(float).smallest_subnormal


def _force_error(n, m, kernel, scale, c):
    """c eps m0 phi(0) scale, plus c ETA for the products that underflow.

    One computed force W @ [m, m u] - u (W @ m) is within (2n + 6) eps
    m0 phi(0) max|u| of the exact force on the same kernel values: each of
    the two n-term sums is within (n + 1) eps of m0 phi(0) max|u| (resp.
    m0 phi(0)), the products m_j u_j and u_i (W @ m)_i add eps each, and
    the final subtraction 2 eps of |F_i| <= 2 m0 phi(0) max|u|.  A constant
    kernel's K (m @ u - m0 u) takes fewer operations.
    """
    phi0 = float(kernel_eval(kernel, 0.0))
    return c * EPS * m.sum() * phi0 * scale + c * ETA * (1.0 + m.sum() * phi0)


def _translation_error(x, shift, u, m, kernel):
    """Bound on |F(x + shift) - F(x)|, both computed.

    Two computed forces (2 (2n + 6) eps) plus the change of the kernel
    values: each computed phi_ij is within (d + 7) eps phi(0) of phi at its
    computed positions' distance (r^2 carries d + 2 roundings, 1 + r^2 one
    more, and beta <= 1 in KERNELS; the power and c0 add up to three), the
    rounded x + shift moves a distance by at most 2 sqrt(d) eps (max|x| +
    max|shift|), and |phi'| <= beta phi(0) for phi = c0 (1 + r^2)^(-beta),
    clipped or not.  A kernel change dw moves F_i by at most dw m0 2 max|u|.
    """
    n, d = x.shape
    beta = getattr(getattr(kernel, "inner", kernel), "beta", 0.0)
    dw = 2 * (d + 7) + 2 * math.sqrt(d) * beta * (np.abs(x).max() + np.abs(shift).max())
    return _force_error(n, m, kernel, np.abs(u).max(), 2 * (2 * n + 6) + 2 * dw)


def _galilean_error(x, u, v, m, kernel, potential):
    """Bound on |du(u + v) - du(u)|, both computed, du = F - grad U(x).

    Two computed forces at velocity scale max|u| + max|v| (2 (2n + 6) eps),
    the rounding of u + v (F is linear in u: 2 eps), and the two final
    subtractions of grad U (2 eps of |F| and eps of max|grad U| each).
    """
    scale = np.abs(u).max() + np.abs(v).max()
    grad = float(np.abs(grad_at(potential, x)).max())
    return _force_error(x.shape[0], m, kernel, scale, 4 * x.shape[0] + 18) + 2 * EPS * grad


def _momentum_error(u, m, kernel):
    """Bound on |sum_i m_i F_i| as the test computes it.

    The exact sum vanishes on the computed kernel values, which are
    symmetric (one evaluation per pair), so it is m0 times one force's
    error (2n + 6) plus the n-term sum's (n + 1) eps m0 2 m0 phi(0) max|u|.
    """
    n = u.shape[0]
    return m.sum() * _force_error(n, m, kernel, np.abs(u).max(), 4 * n + 8)


def _dissipation_error(x, u, m, kernel, potential):
    """Bound on |sum_i m_i u_i . du_i + sum_i m_i g_i . u_i - D| as the test computes it.

    du is the computed right-hand side, g = grad U(x) and D the dense
    oracle's dissipation.  With a = max|u|, G = max|g| and sum_i m_i |u_i|_1
    <= m0 d a, the terms are:

    * the two einsum sums of n d triple products, (n d + 1) eps each, of
      sum m |u| (|F| + |g|) and sum m |g| |u|, the rounding of du = F - g
      (eps of |F| + |g|) and their sum (eps), with |F_i| <= 2 m0 phi(0) a:
      (n d + 3) eps m0 d a 2 m0 phi(0) a + (2 n d + 5) eps m0 d a G;
    * the computed force against the exact one on the same, symmetric
      kernel values, m0 d a times ``_force_error``'s (2n + 6); on those
      values sum_i m_i u_i . F_i equals -1/2 sum m_i m_j phi_ij |u_i - u_j|^2
      exactly;
    * the oracle's kernel values, each within 2 (d + 7) eps phi(0) of the
      package's (see ``_translation_error``), times 1/2 sum m_i m_j |du_ij|^2
      <= 2 d m0^2 a^2;
    * the oracle's own roundings, (2n + d + 4) eps of its nonnegative sum
      (|du_ij|^2 d + 2, phi and the two masses 3, the two n-term sums
      2n - 2), at most 2 d m0^2 phi(0) a^2;
    * ETA for each of the at most n^2 (d + 8) products that underflow,
      times the masses and kernel values that multiply it later.
    """
    n, d = u.shape
    m0, a = m.sum(), np.abs(u).max()
    phi0 = float(kernel_eval(kernel, 0.0))
    grad = float(np.abs(grad_at(potential, x)).max())
    sums = (n * d + 3) * m0 * d * a * 2 * m0 * phi0 * a + (2 * n * d + 5) * m0 * d * a * grad
    pair_sum = 2 * d * m0 * m0 * a * a
    oracle = 2 * (d + 7) * pair_sum * phi0 + (2 * n + d + 4) * pair_sum * phi0
    force = m0 * d * a * _force_error(n, m, kernel, a, 2 * n + 6)
    underflow = n * n * (d + 8) * ETA * (1 + m0) * (1 + m0 * phi0)
    return EPS * (sums + oracle) + force + underflow


@settings(max_examples=60, deadline=None)
@given(ensembles(), KERNELS, POTENTIALS)
def test_particle_rhs_dissipates_energy_at_the_pair_rate(ens, kernel, potential):
    x, u, m, _ = ens
    du = _du(x, u, m, kernel, potential)
    grad = grad_at(potential, x)
    rate = float(np.einsum("i,ik,ik->", m, u, du)) + float(np.einsum("i,ik,ik->", m, grad, u))
    assert abs(rate - dense_dissipation(x, u, m, kernel)) <= _dissipation_error(x, u, m, kernel, potential)


@settings(max_examples=60, deadline=None)
@given(ensembles(), st.data(), KERNELS)
def test_particle_alignment_force_is_translation_invariant(ens, data, kernel):
    x, u, m, _ = ens
    shift = _shifts(data, x.shape[1])
    zero = ZeroPotential()
    got = _du(x + shift, u, m, kernel, zero)
    want = _du(x, u, m, kernel, zero)
    assert np.abs(got - want).max() <= _translation_error(x, shift, u, m, kernel)


@settings(max_examples=60, deadline=None)
@given(ensembles(), st.data(), KERNELS, POTENTIALS)
def test_particle_rhs_is_galilean_invariant(ens, data, kernel, potential):
    x, u, m, _ = ens
    v = _shifts(data, x.shape[1])
    got = _du(x, u + v, m, kernel, potential)
    want = _du(x, u, m, kernel, potential)
    assert np.abs(got - want).max() <= _galilean_error(x, u, v, m, kernel, potential)


@settings(max_examples=60, deadline=None)
@given(ensembles(), KERNELS)
def test_particle_alignment_force_conserves_momentum(ens, kernel):
    x, u, m, _ = ens
    force = _du(x, u, m, kernel, ZeroPotential())
    assert np.abs(m @ force).max() <= _momentum_error(u, m, kernel)


@settings(max_examples=60, deadline=None)
@given(ensembles(dims=(1,)), st.data(), KERNELS)
def test_1d_characteristic_alignment_force_is_translation_invariant(ens, data, kernel):
    x, u, m, _ = ens
    e, rho = _characteristics(data, x.shape[0])
    shift = _shifts(data, 1)
    zero = ZeroPotential()
    got = _rhs_1d(x + shift, u, e, rho, m, kernel, zero)
    want = _rhs_1d(x, u, e, rho, m, kernel, zero)
    assert np.array_equal(got[0], want[0])  # dx = u
    assert np.abs(got[1] - want[1]).max() <= _translation_error(x, shift, u, m, kernel)


@settings(max_examples=60, deadline=None)
@given(ensembles(dims=(1,)), st.data(), KERNELS, POTENTIALS)
def test_1d_characteristic_rhs_is_galilean_invariant(ens, data, kernel, potential):
    x, u, m, _ = ens
    e, rho = _characteristics(data, x.shape[0])
    v = _shifts(data, 1)
    got = _rhs_1d(x, u + v, e, rho, m, kernel, potential)
    want = _rhs_1d(x, u, e, rho, m, kernel, potential)
    assert np.array_equal(got[0], u + v)
    assert np.abs(got[1] - want[1]).max() <= _galilean_error(x, u, v, m, kernel, potential)
    # de and drho read the positions and the kernel convolution, not u
    assert np.array_equal(got[2], want[2]) and np.array_equal(got[3], want[3])


@settings(max_examples=60, deadline=None)
@given(ensembles(dims=(1,)), st.data(), KERNELS)
def test_1d_characteristic_alignment_force_conserves_momentum(ens, data, kernel):
    x, u, m, _ = ens
    e, rho = _characteristics(data, x.shape[0])
    du = _rhs_1d(x, u, e, rho, m, kernel, ZeroPotential())[1]
    assert np.abs(m @ du).max() <= _momentum_error(u, m, kernel)
