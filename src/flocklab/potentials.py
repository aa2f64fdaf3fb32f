"""External confining potentials.

The external force on an agent at x is -grad U(x).  Every supported family is U(x) = a/2 |x|^2
+ eps * sum_i (1 - cos(kappa x_i)) / kappa^2: zero (a = 0, no ripple), quadratic (a > 0, no ripple) and
perturbed quadratic (0 <= eps < a), the canonical uniformly convex, non-quadratic test case.  Its Hessian
is diagonal, a + eps*cos(kappa x_i), so the convexity bounds (a - eps, a + eps) are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "QuadraticPotential",
    "PerturbedQuadraticPotential",
    "ZeroPotential",
    "Potential",
    "value_at",
    "gradient",
    "grad_at",
    "hessian_diag",
    "hess_diag_at",
    "convexity_bounds",
]


@dataclass(frozen=True)
class QuadraticPotential:
    a: float

    def __post_init__(self):
        if not 0.0 < self.a < np.inf:
            raise ValueError(f"quadratic potential needs a finite a > 0, got {self.a}")


@dataclass(frozen=True)
class PerturbedQuadraticPotential:
    a: float
    eps: float
    kappa: float

    def __post_init__(self):
        if not 0.0 < self.a < np.inf:
            raise ValueError(f"perturbed quadratic needs a finite a > 0, got {self.a}")
        if not 0.0 <= self.eps < self.a:
            raise ValueError(f"perturbed quadratic needs 0 <= eps < a, got eps={self.eps}")
        if not 0.0 < self.kappa < np.inf:
            raise ValueError(f"perturbed quadratic needs a finite kappa > 0, got {self.kappa}")


@dataclass(frozen=True)
class ZeroPotential:
    pass


Potential = Union[QuadraticPotential, PerturbedQuadraticPotential, ZeroPotential]


def _family(potential: Potential):
    """(a, ripple) of the potential's family, with ripple = (eps, kappa) or None."""
    if isinstance(potential, (QuadraticPotential, ZeroPotential)):
        return getattr(potential, "a", 0.0), None
    if isinstance(potential, PerturbedQuadraticPotential):
        return potential.a, (potential.eps, potential.kappa)
    raise TypeError(f"unknown potential {potential!r}")


def value_at(potential: Potential, x: np.ndarray) -> np.ndarray:
    """U at each row of x, shape (N, d) -> (N,)."""
    x = np.asarray(x, dtype=float)
    return _value_from_sq(potential, x, np.einsum("nd,nd->n", x, x))


def _value_from_sq(potential: Potential, x: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """``value_at`` from the rows of x and their squared norms sq = |x_i|^2, which a caller may have."""
    a, ripple = _family(potential)
    if a == 0:  # exact zeros: 0 * |x|^2 is NaN where |x|^2 overflows
        return np.zeros(x.shape[0])
    quad = 0.5 * sq
    if ripple is None:
        return a * quad
    eps, k = ripple
    return a * quad + eps * ((1.0 - np.cos(k * x)).sum(axis=1) / (k * k))


def gradient(potential: Potential):
    """grad U as a function of x, shape (N, d) -> (N, d), with the family and its constants decided once.

    The constants are 0-d arrays, numpy's cheapest scalar operand, with the bits of the floats.
    """
    a, ripple = _family(potential)
    if a == 0:  # exact zeros: 0 * x is -0.0 for negative x
        return np.zeros_like
    a = np.array(a)
    if ripple is None:
        return lambda x: a * x
    k, c = np.array(ripple[1]), np.array(ripple[0] / ripple[1])
    return lambda x: a * x + c * np.sin(k * x)


def grad_at(potential: Potential, x: np.ndarray) -> np.ndarray:
    """grad U at each row of x, shape (N, d) -> (N, d)."""
    return gradient(potential)(np.asarray(x, dtype=float))


def hessian_diag(potential: Potential):
    """The diagonal of Hess U as a function of x, shape (N, d) -> (N, d), with the family decided once.

    Every supported family has a diagonal Hessian, so the diagonal is the whole matrix.  Where it is
    constant (quadratic or zero potential) the function returns a 0-d array, which broadcasts to (N, d).
    """
    a, ripple = _family(potential)
    a = np.array(a)
    if ripple is None:
        return lambda x: a
    eps, k = (np.array(v) for v in ripple)
    return lambda x: a + eps * np.cos(k * x)


def hess_diag_at(potential: Potential, x: np.ndarray) -> Union[np.ndarray, float]:
    """``hessian_diag`` at each row of x, with a constant diagonal as a float."""
    hess = hessian_diag(potential)(np.asarray(x, dtype=float))
    return float(hess) if hess.ndim == 0 else hess


def convexity_bounds(potential: Potential) -> tuple[float, float]:
    """Exact infimum and supremum of the Hessian eigenvalues, (a_lo, a_hi)."""
    a, ripple = _family(potential)
    eps = 0.0 if ripple is None else ripple[0]
    return a - eps, a + eps
