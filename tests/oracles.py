"""Independent closed-form oracles shared by the test modules.

These deliberately avoid the package's code paths: the Riccati solution is
derived by hand from e' = -e(e - K) - A, the oscillator from x'' = -a x,
and the pairwise-attraction variant is summed over explicit pair arrays.
The dense frame functionals build the full N x N x d pair arrays, and the
dense pair sums the N x N kernel and gradient-weight matrices, that
``diagnostics.pair_scan`` and the blocked pass of ``dynamics.pair_blocks``
visit one upper-triangle row block at a time.  ``reference_rk4`` is the
list-comprehension RK4 driver that the packed in-place driver replaced, and
the ``reference_rhs_*`` functions the allocating right-hand sides it called.
"""

import math

import numpy as np

from flocklab.dynamics import E_BLOWUP_CAP, STATE_CAP, BlowupSignal, Ensemble, alignment_force
from flocklab.hydro2d import _pair_terms_2d
from flocklab.kernels import ConstantKernel, FloorClippedKernel, kernel_eval_sq
from flocklab.potentials import grad_at, hess_diag_at, value_at


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


def reference_rk4(state, f, dt):
    """One classical RK4 step of the arrays in ``state.evolved()``, ``f(*arrays)`` returning their derivatives.

    Each stage is a list comprehension over the arrays; the new arrays are
    screened one by one (|value| within its cap, then rho >= 0).
    """
    caps = {"e": E_BLOWUP_CAP, "rho": np.finfo(float).max}
    arrays = state.evolved()
    y = arrays.values()
    h = 0.5 * dt
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = f(*y)
        k2 = f(*[a + h * b for a, b in zip(y, k1)])
        k3 = f(*[a + h * b for a, b in zip(y, k2)])
        k4 = f(*[a + dt * b for a, b in zip(y, k3)])
        y1 = [
            a + (dt / 6.0) * (b1 + 2.0 * (b2 + b3) + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
        ]
    t_hi = state.t + dt
    new = dict(zip(arrays, y1))
    for name, arr in new.items():
        cap = caps.get(name, STATE_CAP)
        if not np.abs(arr).max() <= cap:
            raise BlowupSignal(state.t, t_hi, f"|{name}| exceeded {cap:.0e} or non-finite")
    if "rho" in new and new["rho"].min() < 0.0:
        raise BlowupSignal(state.t, t_hi, "density left the nonnegative range")
    return Ensemble(m=state.m, t=t_hi, **new)


def _full_hess(potential, x):
    return np.broadcast_to(hess_diag_at(potential, x), x.shape)


def reference_rhs_particles(m, kernel, potential):
    """f(x, u) -> (dx, du) of the particle system."""
    return lambda x, u: (u, alignment_force(x, u, m, kernel)[0] - grad_at(potential, x))


def reference_rhs_1d(m, kernel, potential):
    """f(x, u, e, rho) -> (dx, du, de, drho) along 1D characteristics."""

    def f(x, u, e, rho):
        force, phi_conv = alignment_force(x, u, m, kernel)
        shear = e - phi_conv
        return u, force - grad_at(potential, x), -e * shear - _full_hess(potential, x)[:, 0], -rho * shear

    return f


def reference_rhs_2d(m, kernel, potential):
    """f(x, u, grad_u) -> (dx, du, dgrad_u) along 2D characteristics, the 2x2 square stacked."""

    def f(x, u, grad_u):
        if isinstance(kernel, ConstantKernel):
            force, phi_conv = alignment_force(x, u, m, kernel)
        else:
            force, phi_conv, forcing = _pair_terms_2d(x, u, m, kernel)
        g00, g01, g10, g11 = grad_u[:, 0, 0], grad_u[:, 0, 1], grad_u[:, 1, 0], grad_u[:, 1, 1]
        square = [g00 * g00 + g01 * g10, g00 * g01 + g01 * g11, g10 * g00 + g11 * g10, g10 * g01 + g11 * g11]
        d_grad = -np.stack(square, axis=-1).reshape(grad_u.shape)
        d_grad -= np.reshape(phi_conv, (-1, 1, 1)) * grad_u
        if not isinstance(kernel, ConstantKernel):
            d_grad += forcing
        hess = _full_hess(potential, x)
        d_grad[:, 0, 0] -= hess[:, 0]
        d_grad[:, 1, 1] -= hess[:, 1]
        return u, force - grad_at(potential, x), d_grad

    return f
