"""External confining potentials.

The external force on an agent at x is -grad U(x).  Supported families:

* quadratic            U(x) = a/2 |x|^2,  a > 0
* perturbed quadratic  U(x) = a/2 |x|^2 + eps * sum_i (1 - cos(kappa x_i)) / kappa^2
* zero                 U = 0

The perturbed family is the canonical uniformly convex, non-quadratic test
case: its Hessian is diagonal with entries a + eps*cos(kappa x_i), so the
convexity bounds (a - eps, a + eps) are exact.  It requires 0 <= eps < a.
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


def value_at(potential: Potential, x: np.ndarray) -> np.ndarray:
    """U at each row of x, shape (N, d) -> (N,)."""
    x = np.asarray(x, dtype=float)
    if isinstance(potential, ZeroPotential):
        return np.zeros(x.shape[0])
    quad = 0.5 * np.einsum("nd,nd->n", x, x)
    if isinstance(potential, QuadraticPotential):
        return potential.a * quad
    if isinstance(potential, PerturbedQuadraticPotential):
        k = potential.kappa
        ripple = (1.0 - np.cos(k * x)).sum(axis=1) / (k * k)
        return potential.a * quad + potential.eps * ripple
    raise TypeError(f"unknown potential {potential!r}")


def gradient(potential: Potential):
    """grad U as a function of x, shape (N, d) -> (N, d), with the family and its constants decided once.

    The constants are 0-d arrays, numpy's cheapest scalar operand, with the
    bits of the floats.
    """
    if isinstance(potential, ZeroPotential):
        return np.zeros_like
    if isinstance(potential, QuadraticPotential):
        a = np.array(potential.a)
        return lambda x: a * x
    if isinstance(potential, PerturbedQuadraticPotential):
        a, k, c = (np.array(v) for v in (potential.a, potential.kappa, potential.eps / potential.kappa))
        return lambda x: a * x + c * np.sin(k * x)
    raise TypeError(f"unknown potential {potential!r}")


def grad_at(potential: Potential, x: np.ndarray) -> np.ndarray:
    """grad U at each row of x, shape (N, d) -> (N, d)."""
    return gradient(potential)(np.asarray(x, dtype=float))


def hess_diag_at(potential: Potential, x: np.ndarray) -> Union[np.ndarray, float]:
    """Diagonal of the Hessian of U at each row of x, shape (N, d) -> (N, d).

    Every supported family has a diagonal Hessian, so the diagonal is the
    whole matrix.  Where it is constant (quadratic or zero potential) it is
    returned as the float a or 0.0, which broadcasts to (N, d).
    """
    if isinstance(potential, ZeroPotential):
        return 0.0
    if isinstance(potential, QuadraticPotential):
        return potential.a
    if isinstance(potential, PerturbedQuadraticPotential):
        return potential.a + potential.eps * np.cos(potential.kappa * np.asarray(x, dtype=float))
    raise TypeError(f"unknown potential {potential!r}")


def convexity_bounds(potential: Potential) -> tuple[float, float]:
    """Exact infimum and supremum of the Hessian eigenvalues, (a_lo, a_hi)."""
    if isinstance(potential, ZeroPotential):
        return 0.0, 0.0
    if isinstance(potential, QuadraticPotential):
        return potential.a, potential.a
    if isinstance(potential, PerturbedQuadraticPotential):
        return potential.a - potential.eps, potential.a + potential.eps
    raise TypeError(f"unknown potential {potential!r}")
