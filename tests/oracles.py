"""Independent closed-form oracles shared by the test modules.

These deliberately avoid the package's code paths: the Riccati solution is
derived by hand from e' = -e(e - K) - A, the oscillator from x'' = -a x,
and the pairwise-attraction variant is summed over explicit pair arrays.
The dense frame functionals build the full N x N x d pair arrays, and the
dense pair sums the N x N kernel and gradient-weight matrices, that
``diagnostics.pair_scan`` and the blocked pass of ``dynamics.pair_blocks``
visit one upper-triangle row block at a time.
"""

import math

import numpy as np

from flocklab.kernels import ConstantKernel, FloorClippedKernel, kernel_eval_sq
from flocklab.potentials import value_at


def riccati_exact(t, e0, K, A):
    """Closed form for the constant-coefficient e-equation."""
    disc = K * K / 4.0 - A
    mid = K / 2.0
    t = np.asarray(t, dtype=float)
    if disc > 0.0:
        gap = math.sqrt(disc)
        r_hi, r_lo = mid + gap, mid - gap
        if e0 == r_hi:
            return np.full_like(t, r_hi)
        w0 = (e0 - r_hi) / (e0 - r_lo)
        w = w0 * np.exp(-2.0 * gap * t)
        return (r_hi - r_lo * w) / (1.0 - w)
    if disc == 0.0:
        y0 = e0 - mid
        return mid + y0 / (1.0 + y0 * t)
    gamma = math.sqrt(-disc)
    theta0 = math.atan2(e0 - mid, gamma)
    return mid + gamma * np.tan(theta0 - gamma * t)


def riccati_blowup_time(e0, K, A):
    """Blow-up time of the oscillatory branch (A > K^2/4)."""
    gamma = math.sqrt(A - K * K / 4.0)
    return (math.atan2(e0 - K / 2.0, gamma) + math.pi / 2.0) / gamma


def oscillator_exact(t, x0, u0, a):
    """Solution of x' = u, u' = -a x componentwise for vector data."""
    omega = math.sqrt(a)
    x0 = np.asarray(x0, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    ct, st = math.cos(omega * t), math.sin(omega * t)
    return x0 * ct + u0 * (st / omega), -x0 * omega * st + u0 * ct


def lagrange_derivative(x, u):
    """Three-point derivative at interior nodes of a sorted nonuniform grid."""
    x0, x1, x2 = x[:-2], x[1:-1], x[2:]
    u0, u1, u2 = u[:-2], u[1:-1], u[2:]
    return (
        u0 * (x1 - x2) / ((x0 - x1) * (x0 - x2))
        + u1 * (2 * x1 - x0 - x2) / ((x1 - x0) * (x1 - x2))
        + u2 * (x1 - x0) / ((x2 - x0) * (x2 - x1))
    )


def pairwise_attraction_du(x, u, m, phi, a):
    """du of the variant with pairwise attraction instead of a potential.

    du_i = sum_j m_j phi(|x_i - x_j|) (u_j - u_i) - (a/m0) sum_j m_j (x_i - x_j),
    with ``phi`` a vectorized function of the distance.  On an ensemble with
    zero mean position this coincides exactly with the quadratic-potential
    right-hand side, and the total momentum is conserved for any data.
    """
    dx = x[:, None, :] - x[None, :, :]
    w = m[None, :] * phi(np.sqrt(np.einsum("ijd,ijd->ij", dx, dx)))
    alignment = np.einsum("ij,ijd->id", w, u[None, :, :] - u[:, None, :])
    return alignment - (a / m.sum()) * np.einsum("j,ijd->id", m, dx)


def _pairwise_sq_norms(z):
    diff = z[:, None, :] - z[None, :, :]
    return np.einsum("ijd,ijd->ij", diff, diff)


def dense_fluctuations(ens, a):
    """(deltaE_L2, deltaE_Linf) from the dense pair matrix |du|^2 + a |dx|^2."""
    pair = _pairwise_sq_norms(ens.u)
    if a != 0.0:
        pair = pair + a * _pairwise_sq_norms(ens.x)
    weighted = float(ens.m @ (pair @ ens.m))
    return weighted, float(pair.max())


def dense_particle_energy_support(ens, potential):
    """(P, D) with D from the dense matrix of squared distances."""
    per_particle = 0.5 * np.einsum("nd,nd->n", ens.u, ens.u) + value_at(potential, ens.x)
    d_sq = _pairwise_sq_norms(ens.x).max()
    return float(per_particle.max()), float(math.sqrt(d_sq))


def dense_pair_functional_f(ens, coupling, beta):
    """max over pairs of K/2 |dx|^2 + dx . du + beta/2 |du|^2 from dense N x N x d arrays."""
    dx = ens.x[:, None, :] - ens.x[None, :, :]
    du = ens.u[:, None, :] - ens.u[None, :, :]
    vals = 0.5 * coupling * np.einsum("ijd,ijd->ij", dx, dx)
    vals += np.einsum("ijd,ijd->ij", dx, du)
    vals += 0.5 * beta * np.einsum("ijd,ijd->ij", du, du)
    return float(vals.max())


def _dense_alignment(w, u, m):
    r = w @ np.column_stack((m, m[:, None] * u))
    return r[:, 1:] - u * r[:, :1], r[:, 0]


def dense_alignment_force(x, u, m, kernel):
    """(sum_j m_j phi_ij (u_j - u_i), sum_j m_j phi_ij) from the whole N x N kernel matrix."""
    return _dense_alignment(kernel_eval_sq(kernel, _pairwise_sq_norms(x)), u, m)


def dense_conv_phi(x, m, kernel):
    """sum_j m_j phi(|x_i - x_j|) from the whole N x N kernel matrix."""
    return kernel_eval_sq(kernel, _pairwise_sq_norms(x)) @ m


def _closed_form_slope(kernel, r_sq):
    """phi'(r)/r: -2 c0 beta (1 + r^2)^(-beta - 1) for a power law, 0 where the kernel is flat."""
    if isinstance(kernel, ConstantKernel):
        return np.zeros_like(r_sq)
    if isinstance(kernel, FloorClippedKernel):
        unclipped = kernel_eval_sq(kernel.inner, r_sq) > kernel.alpha
        return np.where(unclipped, _closed_form_slope(kernel.inner, r_sq), 0.0)
    return -2.0 * kernel.c0 * kernel.beta * np.power(1.0 + r_sq, -kernel.beta - 1.0)


def dense_gradient_forcing(x, u, m, kernel):
    """R[i, a, l] = sum_j m_j (phi'(r)/r)(x_i - x_j)_l (u_j - u_i)_a from whole N x N weight matrices."""
    slope = _closed_form_slope(kernel, _pairwise_sq_norms(x))
    dx = x[:, None, :] - x[None, :, :]
    return np.stack([_dense_alignment(slope * dx[:, :, l], u, m)[0] for l in range(x.shape[1])], axis=-1)
