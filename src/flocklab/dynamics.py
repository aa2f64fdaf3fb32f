"""N-agent alignment dynamics with external potential forcing.

Each agent carries a position x_i, a velocity u_i and a static quadrature
mass m_i > 0.  The equations of motion are

    dx_i/dt = u_i
    du_i/dt = sum_j m_j phi(|x_i - x_j|) (u_j - u_i) - grad U(x_i)

with a mass-weighted coupling: the ensemble is then the exact Lagrangian
quadrature of the hydrodynamic convolution phi*(rho u) - u (phi*rho) with
total mass sum(m).  Equal weights m_j = m0/N recover the plain arithmetic
average.  The vanishing i = j term is kept in the sums (it contributes
exactly zero).

The pairwise sums are a BLAS product of the kernel matrix with the block
[m, m*u], taken in row blocks that OpenBLAS keeps on one thread, so runs
give the same bytes whatever OPENBLAS_NUM_THREADS is (a test compares 1
and 2 threads up to N = 700).  Time stepping is classical fixed-step RK4; a state whose
components overflow the cap or turn non-finite raises BlowupSignal with
the bracketing time interval instead of propagating NaNs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .kernels import ConstantKernel, Kernel, kernel_eval_sq
from .potentials import Potential, grad_at

__all__ = [
    "STATE_CAP",
    "BlowupSignal",
    "Ensemble",
    "Means",
    "rhs",
    "rhs_pairwise",
    "step_rk4",
    "means",
    "recenter",
    "rk4_step",
    "pairwise_phi_weights",
    "conv_phi",
    "alignment_force",
    "pair_sq_distances", "pair_product", "weighted_alignment",
]

# any |x| or |u| beyond this (or a non-finite value) is treated as blow-up
STATE_CAP = 1.0e9


class BlowupSignal(RuntimeError):
    """Raised when the integration leaves the trusted numerical range.

    ``t_lo`` and ``t_hi`` bracket the step in which the state went bad.
    """

    def __init__(self, t_lo: float, t_hi: float, reason: str):
        super().__init__(f"blow-up detected in t = [{t_lo:.6g}, {t_hi:.6g}]: {reason}")
        self.t_lo = t_lo
        self.t_hi = t_hi
        self.reason = reason


@dataclass
class Ensemble:
    """Weighted agent state in dimension d; arrays are (N, d) and (N,)."""

    x: np.ndarray
    u: np.ndarray
    m: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.x = np.atleast_2d(np.asarray(self.x, dtype=float))
        self.u = np.atleast_2d(np.asarray(self.u, dtype=float))
        self.m = np.asarray(self.m, dtype=float)
        if self.x.shape != self.u.shape or self.x.ndim != 2:
            raise ValueError(f"x and u must both be (N, d), got {self.x.shape} and {self.u.shape}")
        if self.m.shape != (self.x.shape[0],):
            raise ValueError(f"m must be (N,), got {self.m.shape}")
        if self.x.shape[0] < 1:
            raise ValueError("need at least one agent")
        if not np.all(self.m > 0.0):
            raise ValueError("all masses must be positive")
        if not (np.isfinite(self.x).all() and np.isfinite(self.u).all()):
            raise ValueError("coordinates must be finite")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    @property
    def total_mass(self) -> float:
        return float(self.m.sum())


@dataclass(frozen=True)
class Means:
    x_c: np.ndarray
    u_c: np.ndarray


# fresh (N, N) allocations are expensive (page faulting dominates the
# pairwise pass), so the hot path reuses per-thread scratch buffers
_scratch = threading.local()


def pair_sq_distances(x: np.ndarray):
    """r^2[i, j] = |x_i - x_j|^2, and a second N x N array free for the caller.

    Both are per-thread scratch that the next call on the thread overwrites.
    """
    n = x.shape[0]
    cache = _scratch.__dict__.setdefault("cache", {})
    if n not in cache:
        cache[n] = (np.empty((n, n)), np.empty((n, n)))
    r_sq, spare = cache[n]
    for k in range(x.shape[1]):
        dk = np.subtract(x[:, k, None], x[None, :, k], out=spare if k else r_sq)
        np.multiply(dk, dk, out=dk)
        if k:
            r_sq += dk
    return r_sq, spare


def _kernel_matrix(x: np.ndarray, kernel: Kernel) -> np.ndarray:
    """W[i, j] = phi(|x_i - x_j|), masses left out, in scratch valid until its next use."""
    r_sq, _ = pair_sq_distances(x)
    return kernel_eval_sq(kernel, r_sq, out=r_sq)


def pair_product(w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """w @ b for an N x N matrix w, in row blocks of at most 2**19 multiplies (2**18 for a vector).

    OpenBLAS 0.3.31 ran products of 1e6 multiplies (4.9e5 for a vector) on
    two threads, which moves their last bits; blocks this small stay on one.
    """
    rows = max(1, (2**19 if b.ndim > 1 else 2**18) // b.size)
    return np.concatenate([w[lo:lo + rows] @ b for lo in range(0, w.shape[0], rows)])


def weighted_alignment(w: np.ndarray, u: np.ndarray, m: np.ndarray):
    """(sum_j w_ij m_j (u_j - u_i), sum_j w_ij m_j) from one product of w with [m, m*u]."""
    r = pair_product(w, np.column_stack((m, m[:, None] * u)))
    return r[:, 1:] - u * r[:, :1], r[:, 0]


def pairwise_phi_weights(x: np.ndarray, m: np.ndarray, kernel: Kernel) -> np.ndarray:
    """Mass-weighted kernel matrix W[i, j] = m_j * phi(|x_i - x_j|)."""
    return _kernel_matrix(x, kernel) * m[None, :]


def conv_phi(x: np.ndarray, m: np.ndarray, kernel: Kernel) -> np.ndarray:
    """Quadrature of the kernel convolution with the density: sum_j m_j phi(|x_i - x_j|)."""
    if isinstance(kernel, ConstantKernel):
        return np.full(x.shape[0], kernel.value * m.sum())
    return pair_product(_kernel_matrix(x, kernel), m)


def alignment_force(x: np.ndarray, u: np.ndarray, m: np.ndarray, kernel: Kernel):
    """Velocity alignment term sum_j m_j phi(|x_i - x_j|)(u_j - u_i).

    Returns ``(force, phi_conv)`` so callers that also need the convolution
    sum_j m_j phi_ij do not pay for the pairwise pass twice.  A constant
    kernel collapses to the O(N) form value * (sum_j m_j u_j - m0 u_i).
    """
    if isinstance(kernel, ConstantKernel):
        m0 = m.sum()
        mu = m @ u
        force = kernel.value * (mu[None, :] - m0 * u)
        phi_conv = np.full(x.shape[0], kernel.value * m0)
        return force, phi_conv
    return weighted_alignment(_kernel_matrix(x, kernel), u, m)


def rhs(ens: Ensemble, kernel: Kernel, potential: Potential):
    """Time derivative (dx, du) of the ensemble."""
    du = _rhs_u(ens.x, ens.u, ens.m, kernel, potential)
    if not np.isfinite(du).all():
        raise BlowupSignal(ens.t, ens.t, "non-finite velocity derivative")
    return ens.u.copy(), du


def _rhs_u(x, u, m, kernel, potential):
    return alignment_force(x, u, m, kernel)[0] - grad_at(potential, x)


def rhs_pairwise(ens: Ensemble, kernel: Kernel, a: float):
    """Derivative for the variant with pairwise attraction instead of a potential.

    du_i = alignment - (a/m0) sum_j m_j (x_i - x_j).  On an ensemble with
    zero mean position this coincides exactly with the quadratic-potential
    right-hand side, and the total momentum is conserved for any data.
    """
    force, _ = alignment_force(ens.x, ens.u, ens.m, kernel)
    m0 = ens.total_mass
    mx = ens.m @ ens.x
    force -= (a / m0) * (m0 * ens.x - mx[None, :])
    if not np.isfinite(force).all():
        raise BlowupSignal(ens.t, ens.t, "non-finite velocity derivative")
    return ens.u.copy(), force


def rk4_step(y: tuple, f, dt: float) -> tuple:
    """One classical RK4 step for a state held as a tuple of arrays."""
    k1 = f(y)
    k2 = f(tuple(a + (0.5 * dt) * b for a, b in zip(y, k1)))
    k3 = f(tuple(a + (0.5 * dt) * b for a, b in zip(y, k2)))
    k4 = f(tuple(a + dt * b for a, b in zip(y, k3)))
    return tuple(
        a + (dt / 6.0) * (b1 + 2.0 * (b2 + b3) + b4)
        for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
    )


def check_state_arrays(t_lo: float, t_hi: float, **arrays):
    """Raise BlowupSignal if any named array is non-finite or beyond STATE_CAP."""
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise BlowupSignal(t_lo, t_hi, f"non-finite {name}")
        if np.abs(arr).max() > STATE_CAP:
            raise BlowupSignal(t_lo, t_hi, f"|{name}| exceeded {STATE_CAP:.0e}")


def step_rk4(ens: Ensemble, kernel: Kernel, potential: Potential, dt: float) -> Ensemble:
    """Advance the ensemble by one RK4 step of size dt > 0."""
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")

    def f(y):
        x, u = y
        return u, _rhs_u(x, u, ens.m, kernel, potential)

    with np.errstate(over="ignore", invalid="ignore"):
        x1, u1 = rk4_step((ens.x, ens.u), f, dt)
    check_state_arrays(ens.t, ens.t + dt, x=x1, u=u1)
    return Ensemble(x=x1, u=u1, m=ens.m, t=ens.t + dt)


def means(ens: Ensemble) -> Means:
    """Mass-weighted mean position and velocity."""
    m0 = ens.total_mass
    return Means(x_c=(ens.m @ ens.x) / m0, u_c=(ens.m @ ens.u) / m0)


def recenter(ens: Ensemble) -> Ensemble:
    """Shift to the frame with zero mean position and zero mean velocity.

    With a quadratic potential the shifted ensemble obeys the same
    equations, so simulate-then-recenter and recenter-then-simulate agree.
    """
    c = means(ens)
    return Ensemble(x=ens.x - c.x_c[None, :], u=ens.u - c.u_c[None, :], m=ens.m, t=ens.t)
