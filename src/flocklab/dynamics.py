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
and 2 threads up to N = 700).

``Ensemble`` is the one state record of every solver mode: particles
carry (x, u), 1D characteristics add the threshold variable e and the
density value rho (x and u are then (N, 1)), and 2D characteristics add
the velocity gradient grad_u.  ``advance_rk4`` is the one time stepper:
classical fixed-step RK4 over whichever of these arrays a state carries,
given the mode's array right-hand side.  It checks each new state once; a
component that turns non-finite or leaves its cap (STATE_CAP, E_BLOWUP_CAP
for e, none for the density), or a negative density, raises BlowupSignal
with the bracketing time interval instead of propagating NaNs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kernels import ConstantKernel, Kernel, kernel_eval_sq
from .potentials import Potential, grad_at

__all__ = [
    "STATE_CAP",
    "E_BLOWUP_CAP",
    "BlowupSignal",
    "Ensemble",
    "Means",
    "advance_rk4",
    "step_rk4",
    "means",
    "recenter",
    "pairwise_phi_weights",
    "conv_phi",
    "alignment_force",
    "pair_sq_distances", "pair_product", "weighted_alignment",
]

# any |x|, |u| or |grad_u| beyond this (or a non-finite value) is treated as blow-up
STATE_CAP = 1.0e9
# |e| beyond this is reported as blow-up; chosen far below the state cap
# so the threshold crossing is observed before RK4 values overflow
E_BLOWUP_CAP = 1.0e6
# the arrays a state can carry that the time stepper evolves, in this order
_EVOLVED = ("x", "u", "e", "rho", "grad_u")
# the largest |value| an evolved array may reach before a step counts as a
# blow-up (STATE_CAP for the others); the density only has to stay finite,
# since it grows without bound while a flock contracts
_CAPS = {"e": E_BLOWUP_CAP, "rho": np.finfo(float).max}


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
    """Weighted agent or characteristic state in dimension d.

    x and u are (N, d) and m is (N,).  1D characteristics also carry e and
    rho, each (N,), with d = 1; 2D characteristics carry grad_u, (N, 2, 2).
    """

    x: np.ndarray
    u: np.ndarray
    m: np.ndarray
    t: float = 0.0
    e: Optional[np.ndarray] = None
    rho: Optional[np.ndarray] = None
    grad_u: Optional[np.ndarray] = None

    def __post_init__(self):
        self.x = np.atleast_2d(np.asarray(self.x, dtype=float))
        self.u = np.atleast_2d(np.asarray(self.u, dtype=float))
        self.m = np.asarray(self.m, dtype=float)
        if self.x.shape != self.u.shape or self.x.ndim != 2:
            raise ValueError(f"x and u must both be (N, d), got {self.x.shape} and {self.u.shape}")
        n, d = self.x.shape
        if self.m.shape != (n,):
            raise ValueError(f"m must be (N,), got {self.m.shape}")
        if n < 1:
            raise ValueError("need at least one agent")
        if not np.all(self.m > 0.0):
            raise ValueError("all masses must be positive")
        if (self.e is None) != (self.rho is None):
            raise ValueError("e and rho come together")
        if self.e is not None:
            self.e = np.asarray(self.e, dtype=float)
            self.rho = np.asarray(self.rho, dtype=float)
            if d != 1 or self.e.shape != (n,) or self.rho.shape != (n,):
                raise ValueError("e and rho need a 1D state and must be (N,)")
            if np.any(self.rho < 0.0):
                raise ValueError("density values must be nonnegative")
        if self.grad_u is not None:
            self.grad_u = np.asarray(self.grad_u, dtype=float)
            if self.grad_u.shape != (n, 2, 2) or d != 2:
                raise ValueError(f"grad_u must be (N, 2, 2) on a 2D state, got {self.grad_u.shape}")
        if not all(np.isfinite(a).all() for a in self.evolved().values()):
            raise ValueError("state values must be finite")

    def evolved(self) -> dict:
        """The arrays the time stepper advances by name: x, u, then e and rho or grad_u."""
        return {k: self.__dict__[k] for k in _EVOLVED if self.__dict__[k] is not None}

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def total_mass(self) -> float:
        return float(self.m.sum())


@dataclass(frozen=True)
class Means:
    x_c: np.ndarray
    u_c: np.ndarray


# fresh (N, N) allocations are expensive (page faulting dominates the
# pairwise pass), so the hot path reuses two flat buffers that grow to the
# largest N^2 seen; runs are sequential and sweeps use processes
_scratch = (np.empty(0), np.empty(0))


def pair_sq_distances(x: np.ndarray):
    """r^2[i, j] = |x_i - x_j|^2, and a second N x N array free for the caller.

    Both are views of the process's scratch buffers, overwritten by the next call.
    """
    global _scratch
    n = x.shape[0]
    if _scratch[0].size < n * n:
        _scratch = (np.empty(n * n), np.empty(n * n))
    r_sq, spare = (buf[: n * n].reshape(n, n) for buf in _scratch)
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


def _rhs_u(x, u, m, kernel, potential):
    """du/dt of the particle system: alignment minus grad U."""
    return alignment_force(x, u, m, kernel)[0] - grad_at(potential, x)


def advance_rk4(state: Ensemble, f, dt: float) -> Ensemble:
    """One classical RK4 step of size dt > 0 of the arrays in ``state.evolved()``.

    ``f(*arrays)`` returns their time derivatives in the same order.  The
    new arrays are checked once: each must be finite, x, u and grad_u
    within STATE_CAP, e within E_BLOWUP_CAP and rho nonnegative, else
    BlowupSignal brackets the step.  The new state is assembled without
    validating it again.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
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
        cap = _CAPS.get(name, STATE_CAP)
        if not np.abs(arr).max() <= cap:  # a NaN fails this comparison too
            raise BlowupSignal(state.t, t_hi, f"|{name}| exceeded {cap:.0e} or non-finite")
    if "rho" in new and new["rho"].min() < 0.0:
        # the density ODE preserves positivity; leaving it means the step
        # left the trusted regime
        raise BlowupSignal(state.t, t_hi, "density left the nonnegative range")
    out = object.__new__(Ensemble)
    out.__dict__.update(state.__dict__, t=t_hi, **new)
    return out


def step_rk4(ens: Ensemble, kernel: Kernel, potential: Potential, dt: float) -> Ensemble:
    """Advance the particle ensemble by one RK4 step of size dt > 0."""
    return advance_rk4(ens, lambda x, u: (u, _rhs_u(x, u, ens.m, kernel, potential)), dt)


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
