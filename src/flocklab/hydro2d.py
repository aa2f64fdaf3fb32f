"""2D alignment hydrodynamics: velocity-gradient transport along characteristics.

Along the characteristics of the 2D system, the velocity gradient
G_ij = d u_i / d x_j obeys the matrix Riccati equation

    G' = -G^2 - (phi*rho) G + R - Hess U,
    R_il = sum_j m_j (d_l phi)(x - x_j) (u_i(x_j) - u_i(x)),

where d_l phi(z) = (phi'(|z|)/|z|) z_l vanishes at z = 0.  Regularity is
read off four scalars derived from G: the divergence d = tr G, the
spectral gap eta_S of the symmetric part (difference of its eigenvalues,
reported nonnegative), the scaled vorticity omega = (G_21 - G_12)/2, and
the threshold variable e = d + phi*rho.  They satisfy

    e'     = (4 omega^2 + (phi*rho)^2 - eta_S^2 - e^2 - 2 Lap U) / 2
    eta_S' = -e eta_S + q        (q = 0 for constant kernels + quadratic U)
    omega' = -e omega + antisymmetric forcing (0 for constant kernels)

and the algebraic identity tr(G^2) = (d^2 + eta_S^2 - 4 omega^2) / 2.
The classifiers decide whether initial data are subcritical, i.e. whether
e provably stays nonnegative (so eta_S and omega decay) for all time.

The state is a ``dynamics.Ensemble`` that carries grad_u; ``step_2d``
hands this module's right-hand side to the shared RK4 driver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import constants as _constants
from .dynamics import Ensemble, advance_rk4, alignment_force, pair_sq_distances, weighted_alignment
from .kernels import ConstantKernel, Kernel, kernel_eval_sq, kernel_slope_over_r_sq
from .potentials import Potential, grad_at, hess_diag_at

__all__ = [
    "BumpDensity2D",
    "ShearRotationVelocity",
    "SineShearVelocity",
    "ThresholdReport2D",
    "init_characteristics_2d",
    "rhs_2d",
    "step_2d",
    "spectral_arrays",
    "classify_2d_quadratic",
    "classify_2d_general",
]


@dataclass(frozen=True)
class BumpDensity2D:
    """Separable bump height * b(x1) b(x2), b(s) = max(0, 1 - (s/L)^2)^2 on the square."""

    height: float = 1.0
    half_width: float = 1.0

    def __post_init__(self):
        if not (self.height > 0.0 and self.half_width > 0.0):
            raise ValueError("bump density needs positive height and half_width")

    def value(self, x):
        x = np.asarray(x, dtype=float)
        s = np.clip(1.0 - (x / self.half_width) ** 2, 0.0, None)
        b = s * s
        return self.height * b[..., 0] * b[..., 1]


@dataclass(frozen=True)
class ShearRotationVelocity:
    """u(x) = shear * (x2, x1) + rotation * (-x2, x1); divergence-free."""

    shear: float
    rotation: float = 0.0

    def value(self, x):
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        out[..., 0] = self.shear * x[..., 1] - self.rotation * x[..., 1]
        out[..., 1] = self.shear * x[..., 0] + self.rotation * x[..., 0]
        return out

    def jacobian(self, x):
        x = np.asarray(x, dtype=float)
        n = x.shape[0]
        jac = np.zeros((n, 2, 2))
        jac[:, 0, 1] = self.shear - self.rotation
        jac[:, 1, 0] = self.shear + self.rotation
        return jac


@dataclass(frozen=True)
class SineShearVelocity:
    """u(x) = amplitude * (sin x2, sin x1) + rotation * (-x2, x1)."""

    amplitude: float
    rotation: float = 0.0

    def value(self, x):
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        out[..., 0] = self.amplitude * np.sin(x[..., 1]) - self.rotation * x[..., 1]
        out[..., 1] = self.amplitude * np.sin(x[..., 0]) + self.rotation * x[..., 0]
        return out

    def jacobian(self, x):
        x = np.asarray(x, dtype=float)
        n = x.shape[0]
        jac = np.zeros((n, 2, 2))
        jac[:, 0, 1] = self.amplitude * np.cos(x[:, 1]) - self.rotation
        jac[:, 1, 0] = self.amplitude * np.cos(x[:, 0]) + self.rotation
        return jac


def init_characteristics_2d(
    density: BumpDensity2D,
    velocity,
    n_side: int,
    kernel: Kernel,
    m0: float = 1.0,
) -> Ensemble:
    """Midpoint tensor quadrature of the density with analytic initial gradient."""
    if n_side < 1:
        raise ValueError("need at least one node per side")
    half = density.half_width
    dx = 2.0 * half / n_side
    axis = -half + (np.arange(n_side) + 0.5) * dx
    g0, g1 = np.meshgrid(axis, axis, indexing="ij")
    x = np.column_stack([g0.ravel(), g1.ravel()])
    w = density.value(x) * dx * dx
    total = w.sum()
    if not total > 0.0:
        raise ValueError("density profile has zero total mass on its support")
    m = w * (m0 / total)
    return Ensemble(x=x, u=velocity.value(x), m=m, grad_u=velocity.jacobian(x))


def _pair_terms_2d(x, u, m, kernel):
    """Alignment force, phi*rho and gradient forcing R from one set of pair distances.

    R[:, :, l] is the alignment form with the weights (phi'(r)/r) (x_i - x_j)_l.
    """
    r_sq, spare = pair_sq_distances(x)
    slope = kernel_slope_over_r_sq(kernel, r_sq)
    force, phi_conv = weighted_alignment(kernel_eval_sq(kernel, r_sq, out=r_sq), u, m)
    forcing = np.empty((x.shape[0], 2, 2))
    for l in range(2):
        np.multiply(slope, np.subtract(x[:, l, None], x[None, :, l], out=spare), out=spare)
        forcing[:, :, l] = weighted_alignment(spare, u, m)[0]
    return force, phi_conv, forcing


def _rhs_arrays_2d(x, u, grad_u, m, kernel, potential):
    if isinstance(kernel, ConstantKernel):
        force, phi_conv = alignment_force(x, u, m, kernel)
    else:
        force, phi_conv, forcing = _pair_terms_2d(x, u, m, kernel)
    du = force - grad_at(potential, x)
    g00, g01, g10, g11 = grad_u[:, 0, 0], grad_u[:, 0, 1], grad_u[:, 1, 0], grad_u[:, 1, 1]
    square = [g00 * g00 + g01 * g10, g00 * g01 + g01 * g11, g10 * g00 + g11 * g10, g10 * g01 + g11 * g11]
    d_grad = -np.stack(square, axis=-1).reshape(grad_u.shape)
    d_grad -= phi_conv[:, None, None] * grad_u
    if not isinstance(kernel, ConstantKernel):
        d_grad += forcing
    hess = hess_diag_at(potential, x)
    d_grad[:, 0, 0] -= hess[:, 0]
    d_grad[:, 1, 1] -= hess[:, 1]
    return u, du, d_grad


def rhs_2d(state: Ensemble, kernel: Kernel, potential: Potential):
    """Time derivative (dx, du, dgrad_u) along the characteristics."""
    return _rhs_arrays_2d(state.x, state.u, state.grad_u, state.m, kernel, potential)


def step_2d(state: Ensemble, kernel: Kernel, potential: Potential, dt: float) -> Ensemble:
    """One RK4 step; raises BlowupSignal when the new state leaves the trusted range."""
    return advance_rk4(
        state, lambda x, u, g: _rhs_arrays_2d(x, u, g, state.m, kernel, potential), dt
    )


def spectral_arrays(grad_u: np.ndarray, phi_conv: np.ndarray):
    """Vectorized (d, eta_S, omega, e) for a stack of 2x2 gradients."""
    d = grad_u[..., 0, 0] + grad_u[..., 1, 1]
    s_off = 0.5 * (grad_u[..., 0, 1] + grad_u[..., 1, 0])
    s_diff = grad_u[..., 0, 0] - grad_u[..., 1, 1]
    eta_s = np.sqrt(s_diff * s_diff + 4.0 * s_off * s_off)
    omega = 0.5 * (grad_u[..., 1, 0] - grad_u[..., 0, 1])
    return d, eta_s, omega, d + phi_conv


@dataclass(frozen=True)
class ThresholdReport2D:
    """Subcriticality verdict with the constants and per-inequality margins."""

    verdict: str
    constants: dict
    margins: dict


def classify_2d_quadratic(
    a: float,
    m0: float,
    phi_minus: float,
    phi_plus: float,
    dphi_inf: float,
    etaS0_max: float,
    deltaEinf0: float,
    e0_min: float,
) -> ThresholdReport2D:
    """Subcriticality test for the quadratic potential.

    Builds the decay rate and the uniform flocking constant from the
    kernel bounds, converts them into the gap-forcing budget
    C_star * sqrt(deltaEinf0), and requires

        c1^2 = (m0 phi_minus)^2 - (etaS0_max + C_star sqrt(deltaEinf0))^2 - 4a > 0
        e0_min >= 0.

    ``deltaEinf0`` is the initial worst-pair fluctuation max(|du|^2 + a|dx|^2).
    """
    if not a > 0.0:
        raise ValueError(f"quadratic classifier needs a > 0, got {a}")
    lam = _constants.decay_rate(a, m0, phi_minus, phi_plus)
    c_inf = _constants.linf_constant(a, m0, phi_minus, phi_plus)
    c_star = _constants.gap_forcing_constant(lam, m0, dphi_inf, c_inf)
    budget = etaS0_max + c_star * float(np.sqrt(deltaEinf0))
    c1_sq = (m0 * phi_minus) ** 2 - budget * budget - 4.0 * a
    subcritical = c1_sq > 0.0 and e0_min >= 0.0
    consts = {
        "lambda": lam,
        "C_inf": c_inf,
        "C_star": c_star,
        "etaS_budget": budget,
        "c1_sq": c1_sq,
        "c1": float(np.sqrt(c1_sq)) if c1_sq > 0.0 else float("nan"),
    }
    margins = {"c1": c1_sq, "c1_cond1": e0_min}
    verdict = "subcritical_quadratic" if subcritical else "not_subcritical"
    return ThresholdReport2D(verdict, consts, margins)


def classify_2d_general(
    A: float,
    a: float,
    m0: float,
    phi_minus: float,
    dphi_inf: float,
    u_max: float,
    etaS0_max: float,
    e0_min: float,
) -> ThresholdReport2D:
    """Subcriticality test for a general uniformly convex potential.

    Uses a uniform velocity bound u_max instead of a decay estimate: the
    gap forcing is bounded by C_max = 8 dphi_inf m0 u_max + 2A, which must
    stay below C_A = (m0 phi_minus)^2/2 - 2A; the initial gap and e are
    then compared against sqrt(C_A +- sqrt(C_A^2 - C_max^2)).
    """
    if not a > 0.0 or A < a:
        raise ValueError(f"need A >= a > 0, got a={a}, A={A}")
    c_max, c_a, c2, upper = _constants.general_gap_budget(A, m0, phi_minus, dphi_inf, u_max)
    consts = {"C_max": c_max, "C_A": c_a}
    margins = {"Cmi": c_a - c_max}
    if c2 is None:
        consts.update({"c2": float("nan"), "etaS_max": float("nan")})
        margins.update({"etaS_cond2": float("nan"), "c1_cond2": float("nan")})
        return ThresholdReport2D("not_subcritical", consts, margins)
    eta_s_max = max(etaS0_max, c_max / c2)
    consts.update({"c2": c2, "etaS_upper": upper, "etaS_max": eta_s_max})
    margins.update({"etaS_cond2": upper - etaS0_max, "c1_cond2": e0_min - c2})
    subcritical = margins["etaS_cond2"] >= 0.0 and margins["c1_cond2"] > 0.0
    verdict = "subcritical_general" if subcritical else "not_subcritical"
    return ThresholdReport2D(verdict, consts, margins)
