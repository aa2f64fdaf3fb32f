"""Interaction kernels for velocity alignment.

A kernel is a positive, nonincreasing, bounded radial weight phi(r) that
sets how strongly two agents at distance r pull each other's velocities
together.  Three closed analytic families are supported:

* power law   phi(r) = c0 * (1 + r^2)^(-beta),  c0 > 0, beta >= 0
* constant    phi(r) = value
* floor clip  phi(r) = max(inner(r), alpha), a lower-bounded surrogate
  that agrees with ``inner`` wherever inner(r) >= alpha

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
    r_sq = np.asarray(r_sq, dtype=float)
    if out is None:
        out = np.empty_like(r_sq)
    if isinstance(kernel, ConstantKernel):
        out[...] = kernel.value
        return out
    if isinstance(kernel, PowerLawKernel):
        q = r_sq if shifted else np.add(r_sq, 1.0, out=out)
        # scalar/array ufunc forms with explicit out avoid a slow numpy
        # dispatch path for the expression c0 / (1 + r^2)
        if kernel.beta == 1.0:
            np.divide(kernel.c0, q, out=out)
        elif kernel.beta == 0.5:
            np.sqrt(q, out=out)
            np.divide(kernel.c0, out, out=out)
        else:
            np.power(q, -kernel.beta, out=out)
            np.multiply(out, kernel.c0, out=out)
        return out
    if isinstance(kernel, FloorClippedKernel):
        return np.maximum(kernel_eval_sq(kernel.inner, r_sq, out, shifted), kernel.alpha, out=out)
    raise TypeError(f"unknown kernel {kernel!r}")


def kernel_slope_over_r_sq(kernel: Kernel, r_sq, phi=None, out=None, shifted=False):
    """Return phi'(r) / r as a function of the squared radius.

    This is the radial factor of the kernel gradient,
    grad phi(z) = (phi'(|z|) / |z|) * z, which is smooth through z = 0
    for every supported family (phi'(0) = 0).  Used by the 2D velocity
    gradient forcing.  ``phi`` may give phi(r), and ``out`` may alias ``r_sq`` (not ``phi``).
    ``shifted`` is ``kernel_eval_sq``'s.
    """
    r_sq = np.asarray(r_sq, dtype=float)
    if isinstance(kernel, ConstantKernel):
        return np.multiply(r_sq, 0.0, out=out)  # r^2 >= 0, so +0.0
    if phi is None:
        phi = kernel_eval_sq(kernel, r_sq, shifted=shifted)
    if isinstance(kernel, PowerLawKernel):
        # phi'(r)/r = -2 c0 beta (1 + r^2)^(-beta - 1) = -2 beta phi / (1 + r^2)
        slope = np.divide(phi, r_sq if shifted else np.add(r_sq, 1.0, out=out), out=out)
        return np.multiply(slope, -2.0 * kernel.beta, out=out)
    if isinstance(kernel, FloorClippedKernel):  # flat where phi = alpha, the inner slope where phi > alpha
        out = np.asarray(kernel_slope_over_r_sq(kernel.inner, r_sq, phi, out, shifted))
        np.copyto(out, 0.0, where=phi <= kernel.alpha)
        return out
    raise TypeError(f"unknown kernel {kernel!r}")


def _power_law_abs_slope(c0: float, beta: float, r: float) -> float:
    return 2.0 * c0 * beta * r * (1.0 + r * r) ** (-beta - 1.0)


def _power_law_slope_sup(c0: float, beta: float) -> float:
    # |phi'|(r) = 2 c0 beta r (1 + r^2)^(-beta-1) peaks at r^2 = 1/(2 beta + 1)
    if beta == 0.0:
        return 0.0
    r_star = 1.0 / np.sqrt(2.0 * beta + 1.0)
    return _power_law_abs_slope(c0, beta, r_star)


def kernel_bounds(kernel: Kernel):
    """Analytic bounds used by the decay and threshold estimates.

    Returns ``(phi_plus, dphi_inf)``: phi_plus = phi(0), the maximum of the
    nonincreasing kernel, and dphi_inf the exact supremum of |phi'| over
    all radii.
    """
    phi_plus = float(kernel_eval(kernel, 0.0))
    if isinstance(kernel, ConstantKernel):
        dphi_inf = 0.0
    elif isinstance(kernel, PowerLawKernel):
        dphi_inf = _power_law_slope_sup(kernel.c0, kernel.beta)
    elif isinstance(kernel, FloorClippedKernel):
        dphi_inf = _floor_clipped_slope_sup(kernel)
    else:
        raise TypeError(f"unknown kernel {kernel!r}")
    return phi_plus, float(dphi_inf)


def _floor_clipped_slope_sup(kernel: FloorClippedKernel) -> float:
    inner = kernel.inner
    if isinstance(inner, ConstantKernel):
        return 0.0
    assert isinstance(inner, PowerLawKernel)
    if inner.beta == 0.0 or kernel.alpha >= inner.c0:
        # inner constant, or floor covers the whole range
        return 0.0
    # radius where the floor takes over: inner(r_c) = alpha
    r_c_sq = (inner.c0 / kernel.alpha) ** (1.0 / inner.beta) - 1.0
    r_star_sq = 1.0 / (2.0 * inner.beta + 1.0)
    if r_c_sq >= r_star_sq:
        # the slope peak survives the clipping
        return _power_law_slope_sup(inner.c0, inner.beta)
    # |phi'| is increasing up to its peak, so the sup sits at the crossover
    return _power_law_abs_slope(inner.c0, inner.beta, float(np.sqrt(r_c_sq)))


def kernel_inf(kernel: Kernel) -> float:
    """Limit of phi(r) as r grows; positive exactly for kernels bounded below."""
    if isinstance(kernel, ConstantKernel):
        return kernel.value
    if isinstance(kernel, PowerLawKernel):
        return kernel.c0 if kernel.beta == 0.0 else 0.0
    if isinstance(kernel, FloorClippedKernel):
        return max(kernel.alpha, kernel_inf(kernel.inner))
    raise TypeError(f"unknown kernel {kernel!r}")
