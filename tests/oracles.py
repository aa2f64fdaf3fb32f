"""Independent closed-form oracles shared by the test modules.

These deliberately avoid the package's code paths: the Riccati solution is
derived by hand from e' = -e(e - K) - A, the oscillator from x'' = -a x,
and the pairwise-attraction variant is summed over explicit pair arrays.
"""

import math

import numpy as np


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
