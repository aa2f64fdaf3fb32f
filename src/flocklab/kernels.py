"""Interaction kernels for velocity alignment.

A kernel is a positive, nonincreasing, bounded radial weight phi(r) that
sets how strongly two agents at distance r pull each other's velocities
together.  Three closed analytic families are supported:

* power law   phi(r) = c0 * (1 + r^2)^(-beta),  c0 > 0, beta >= 0
* constant    phi(r) = value
* floor clip  phi(r) = max(inner(r), alpha), a lower-bounded surrogate
  that agrees with ``inner`` wherever inner(r) >= alpha

Keeping the families analytic makes the tail classification decidable and
the bounds (phi at 0, phi at a given distance, the sup of |phi'|) exact.
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
    "TailClass",
    "kernel_eval",
    "kernel_eval_sq",
    "kernel_slope_over_r_sq",
    "classify_tail",
    "kernel_bounds",
    "kernel_inf",
]


@dataclass(frozen=True)
class PowerLawKernel:
    """phi(r) = c0 * (1 + r^2)^(-beta)."""

    c0: float
    beta: float

    def __post_init__(self):
        if not self.c0 > 0.0:
            raise ValueError(f"power-law kernel needs c0 > 0, got {self.c0}")
        if self.beta < 0.0:
            raise ValueError(f"power-law kernel needs beta >= 0, got {self.beta}")


@dataclass(frozen=True)
class ConstantKernel:
    """phi(r) = value for all r."""

    value: float

    def __post_init__(self):
        if not self.value > 0.0:
            raise ValueError(f"constant kernel needs a positive value, got {self.value}")


@dataclass(frozen=True)
class FloorClippedKernel:
    """phi(r) = max(inner(r), alpha).

    Nested floors are flattened on construction: max(max(phi, a), b) is
    the same kernel as max(phi, max(a, b)).
    """

    inner: "Kernel"
    alpha: float

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError(f"floor-clipped kernel needs alpha > 0, got {self.alpha}")
        if isinstance(self.inner, FloorClippedKernel):
            merged = max(self.alpha, self.inner.alpha)
            object.__setattr__(self, "alpha", merged)
            object.__setattr__(self, "inner", self.inner.inner)


Kernel = Union[PowerLawKernel, ConstantKernel, FloorClippedKernel]


@dataclass(frozen=True)
class TailClass:
    """Decay-at-infinity classification of a kernel.

    fat_tail:             the radial integral of phi diverges
    thin_tail_admissible: the radial integral of r * phi diverges
    limsup_admissible:    limsup of r * phi(r) is infinite
    """

    fat_tail: bool
    thin_tail_admissible: bool
    limsup_admissible: bool


def kernel_eval(kernel: Kernel, r):
    """Evaluate phi at radius r (scalar or array, r >= 0)."""
    r = np.asarray(r, dtype=float)
    return kernel_eval_sq(kernel, r * r)


def kernel_eval_sq(kernel: Kernel, r_sq, out=None):
    """Evaluate phi from the squared radius.

    All families depend on r only through r^2, so the pairwise force loops
    never need a square root.  ``out`` may alias ``r_sq``.
    """
    r_sq = np.asarray(r_sq, dtype=float)
    if isinstance(kernel, ConstantKernel):
        if out is None:
            return np.full_like(r_sq, kernel.value)
        out[...] = kernel.value
        return out
    if isinstance(kernel, PowerLawKernel):
        if out is None:
            out = np.empty_like(r_sq)
        np.add(r_sq, 1.0, out=out)
        # scalar/array ufunc forms with explicit out avoid a slow numpy
        # dispatch path for the expression c0 / (1 + r^2)
        if kernel.beta == 1.0:
            np.divide(kernel.c0, out, out=out)
        elif kernel.beta == 0.5:
            np.sqrt(out, out=out)
            np.divide(kernel.c0, out, out=out)
        else:
            np.power(out, -kernel.beta, out=out)
            np.multiply(out, kernel.c0, out=out)
        return out
    if isinstance(kernel, FloorClippedKernel):
        out = kernel_eval_sq(kernel.inner, r_sq, out=out)
        np.maximum(out, kernel.alpha, out=out)
        return out
    raise TypeError(f"unknown kernel {kernel!r}")


def kernel_slope_over_r_sq(kernel: Kernel, r_sq):
    """Return phi'(r) / r as a function of the squared radius.

    This is the radial factor of the kernel gradient,
    grad phi(z) = (phi'(|z|) / |z|) * z, which is smooth through z = 0
    for every supported family (phi'(0) = 0).  Used by the 2D velocity
    gradient forcing.
    """
    r_sq = np.asarray(r_sq, dtype=float)
    if isinstance(kernel, ConstantKernel):
        return np.zeros_like(r_sq)
    if isinstance(kernel, PowerLawKernel):
        # phi'(r)/r = -2 c0 beta (1 + r^2)^(-beta - 1)
        base = r_sq + 1.0
        out = np.empty_like(base)
        np.power(base, -(kernel.beta + 1.0), out=out)
        np.multiply(out, -2.0 * kernel.c0 * kernel.beta, out=out)
        return out
    if isinstance(kernel, FloorClippedKernel):
        slope = kernel_slope_over_r_sq(kernel.inner, r_sq)
        unclipped = kernel_eval_sq(kernel.inner, r_sq) > kernel.alpha
        return np.where(unclipped, slope, 0.0)
    raise TypeError(f"unknown kernel {kernel!r}")


def classify_tail(kernel: Kernel) -> TailClass:
    """Classify the tail of the kernel.

    For the power-law family the three criteria reduce to exponent
    comparisons: the radial integral of phi converges iff 2*beta > 1, the
    integral of r*phi converges iff 2*beta > 2, and r*phi(r) tends to a
    finite limit unless 2*beta < 1.  Boundary cases follow the defining
    inequalities as written (divergence is inclusive for the integrals,
    strict for the limsup).  Constant and floor-clipped kernels do not
    decay at all, so every criterion holds.
    """
    if isinstance(kernel, PowerLawKernel):
        return TailClass(
            fat_tail=kernel.beta <= 0.5,
            thin_tail_admissible=kernel.beta <= 1.0,
            limsup_admissible=kernel.beta < 0.5,
        )
    if isinstance(kernel, (ConstantKernel, FloorClippedKernel)):
        return TailClass(fat_tail=True, thin_tail_admissible=True, limsup_admissible=True)
    raise TypeError(f"unknown kernel {kernel!r}")


def _power_law_abs_slope(c0: float, beta: float, r: float) -> float:
    return 2.0 * c0 * beta * r * (1.0 + r * r) ** (-beta - 1.0)


def _power_law_slope_sup(c0: float, beta: float) -> float:
    # |phi'|(r) = 2 c0 beta r (1 + r^2)^(-beta-1) peaks at r^2 = 1/(2 beta + 1)
    if beta == 0.0:
        return 0.0
    r_star = 1.0 / np.sqrt(2.0 * beta + 1.0)
    return _power_law_abs_slope(c0, beta, r_star)


def kernel_bounds(kernel: Kernel, d_max: float):
    """Analytic bounds used by the decay and threshold estimates.

    Returns ``(phi_minus, phi_plus, dphi_inf)`` where phi_minus = phi(d_max)
    (the kernel is nonincreasing, so this bounds phi from below on any
    configuration of diameter d_max), phi_plus = phi(0), and dphi_inf is
    the exact supremum of |phi'| over all radii.
    """
    if d_max < 0.0:
        raise ValueError(f"d_max must be nonnegative, got {d_max}")
    phi_minus = float(kernel_eval(kernel, d_max))
    phi_plus = float(kernel_eval(kernel, 0.0))
    if isinstance(kernel, ConstantKernel):
        dphi_inf = 0.0
    elif isinstance(kernel, PowerLawKernel):
        dphi_inf = _power_law_slope_sup(kernel.c0, kernel.beta)
    elif isinstance(kernel, FloorClippedKernel):
        dphi_inf = _floor_clipped_slope_sup(kernel)
    else:
        raise TypeError(f"unknown kernel {kernel!r}")
    return phi_minus, phi_plus, float(dphi_inf)


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
