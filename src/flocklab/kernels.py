"""Interaction kernels for velocity alignment.

A kernel is a positive, nonincreasing, bounded radial weight phi(r) that
sets how strongly two agents at distance r pull each other's velocities
together.  Two closed analytic families are supported, each optionally
clipped from below:

* power law   phi(r) = c0 * (1 + r^2)^(-beta),  c0 > 0, beta >= 0
* constant    phi(r) = value
* floor clip  phi(r) = max(inner(r), alpha), a lower-bounded surrogate
  that agrees with ``inner`` wherever inner(r) >= alpha

Each function evaluates the inner family once and applies the clip as its
last step (alpha = 0 for an unclipped kernel): phi is raised to alpha,
phi'/r is zero where phi <= alpha, and the infimum is at least alpha.
Keeping the families analytic makes the bounds (phi at 0, the sup of
|phi'|, the infimum) exact.
Tabulated kernels are deliberately not supported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "PowerLawKernel",
    "ConstantKernel",
    "FloorClippedKernel",
    "Kernel",
    "kernel_eval",
    "kernel_eval_sq",
    "kernel_slope_over_r_sq",
    "kernel_bounds",
    "kernel_inf",
]


@dataclass(frozen=True)
class PowerLawKernel:
    """phi(r) = c0 * (1 + r^2)^(-beta)."""

    c0: float
    beta: float

    def __post_init__(self):
        if not 0.0 < self.c0 < np.inf:
            raise ValueError(f"power-law kernel needs a finite c0 > 0, got {self.c0}")
        if not 0.0 <= self.beta < np.inf:
            raise ValueError(f"power-law kernel needs a finite beta >= 0, got {self.beta}")


@dataclass(frozen=True)
class ConstantKernel:
    """phi(r) = value for all r."""

    value: float

    def __post_init__(self):
        if not 0.0 < self.value < np.inf:
            raise ValueError(f"constant kernel needs a finite positive value, got {self.value}")


@dataclass(frozen=True)
class FloorClippedKernel:
    """phi(r) = max(inner(r), alpha).

    Nested floors are flattened on construction: max(max(phi, a), b) is
    the same kernel as max(phi, max(a, b)).
    """

    inner: "Kernel"
    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < np.inf:
            raise ValueError(f"floor-clipped kernel needs a finite alpha > 0, got {self.alpha}")
        if isinstance(self.inner, FloorClippedKernel):
            merged = max(self.alpha, self.inner.alpha)
            object.__setattr__(self, "alpha", merged)
            object.__setattr__(self, "inner", self.inner.inner)


Kernel = Union[PowerLawKernel, ConstantKernel, FloorClippedKernel]


def _floor_split(kernel: Kernel):
    """Return ``(inner, alpha)`` with phi = max(inner(r), alpha); alpha = 0.0 leaves ``inner`` unclipped."""
    inner, alpha = (kernel.inner, kernel.alpha) if isinstance(kernel, FloorClippedKernel) else (kernel, 0.0)
    if not isinstance(inner, (PowerLawKernel, ConstantKernel)):
        raise TypeError(f"unknown kernel {kernel!r}")
    return inner, alpha


def kernel_eval(kernel: Kernel, r):
    """Evaluate phi at radius r (scalar or array, r >= 0)."""
    r = np.asarray(r, dtype=float)
    return kernel_eval_sq(kernel, r * r)


def kernel_eval_sq(kernel: Kernel, r_sq, out=None, shifted=False):
    """Evaluate phi from the squared radius.

    All families depend on r only through r^2, so the pairwise force loops
    never need a square root.  ``out`` may alias ``r_sq``.  With ``shifted``,
    r_sq holds 1 + r^2 already, the power law's argument.
    """
    inner, alpha = _floor_split(kernel)
    r_sq = np.asarray(r_sq, dtype=float)
    if out is None:
        out = np.empty_like(r_sq)
    if isinstance(inner, ConstantKernel):
        out[...] = inner.value
    else:
        q = r_sq if shifted else np.add(r_sq, 1.0, out=out)
        # scalar/array ufunc forms with explicit out avoid a slow numpy
        # dispatch path for the expression c0 / (1 + r^2)
        if inner.beta == 1.0:
            np.divide(inner.c0, q, out=out)
        elif inner.beta == 0.5:
            np.sqrt(q, out=out)
            np.divide(inner.c0, out, out=out)
        else:
            np.power(q, -inner.beta, out=out)
            np.multiply(out, inner.c0, out=out)
    if alpha:
        np.maximum(out, alpha, out=out)
    return out


def kernel_slope_over_r_sq(kernel: Kernel, r_sq, phi=None, out=None, shifted=False):
    """Return phi'(r) / r as a function of the squared radius.

    This is the radial factor of the kernel gradient,
    grad phi(z) = (phi'(|z|) / |z|) * z, which is smooth through z = 0
    for every supported family (phi'(0) = 0).  Used by the 2D velocity
    gradient forcing.  ``phi`` may give phi(r), and ``out`` may alias ``r_sq`` (not ``phi``).
    ``shifted`` is ``kernel_eval_sq``'s.
    """
    inner, alpha = _floor_split(kernel)
    r_sq = np.asarray(r_sq, dtype=float)
    if phi is None:
        phi = kernel_eval_sq(kernel, r_sq, shifted=shifted)
    if isinstance(inner, ConstantKernel):
        slope = np.multiply(r_sq, 0.0, out=out)  # r^2 >= 0, so +0.0
    else:
        # phi'(r)/r = -2 c0 beta (1 + r^2)^(-beta - 1) = -2 beta phi / (1 + r^2)
        slope = np.divide(phi, r_sq if shifted else np.add(r_sq, 1.0, out=out), out=out)
        slope = np.multiply(slope, -2.0 * inner.beta, out=out)
    if alpha:  # flat where phi = alpha, the inner slope where phi > alpha
        slope = np.asarray(slope)
        np.copyto(slope, 0.0, where=phi <= alpha)
    return slope


def kernel_bounds(kernel: Kernel):
    """Analytic bounds used by the decay and threshold estimates.

    Returns ``(phi_plus, dphi_inf)``: phi_plus = phi(0), the maximum of the
    nonincreasing kernel, and dphi_inf the exact supremum of |phi'| over
    all radii.
    """
    inner, alpha = _floor_split(kernel)
    phi_plus = float(kernel_eval(kernel, 0.0))
    if isinstance(inner, ConstantKernel) or inner.beta == 0.0 or alpha >= inner.c0:
        return phi_plus, 0.0  # flat, or the floor covers the whole range
    c0, beta = inner.c0, inner.beta
    # |phi'|(r) = 2 c0 beta r (1 + r^2)^(-beta-1) peaks at r^2 = 1/(2 beta + 1)
    r = 1.0 / np.sqrt(2.0 * beta + 1.0)
    if alpha:
        # radius where the floor takes over: inner(r_c) = alpha; |phi'| increases
        # up to its peak, so a floor that takes over first puts the sup at r_c
        r_c_sq = (c0 / alpha) ** (1.0 / beta) - 1.0
        if r_c_sq < 1.0 / (2.0 * beta + 1.0):
            r = float(np.sqrt(r_c_sq))
    return phi_plus, float(2.0 * c0 * beta * r * (1.0 + r * r) ** (-beta - 1.0))


def kernel_inf(kernel: Kernel) -> float:
    """Limit of phi(r) as r grows; positive exactly for kernels bounded below."""
    inner, alpha = _floor_split(kernel)
    limit = inner.value if isinstance(inner, ConstantKernel) else inner.c0 if inner.beta == 0.0 else 0.0
    return max(alpha, limit)
