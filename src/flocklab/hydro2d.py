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
hands this module's right-hand side to ``dynamics.advance_rk4``, and
``runner.run`` to the RK4 core that it wraps.  Its terms
come from the builders every mode uses: ``dynamics.alignment_plan`` for a
constant kernel (a decaying kernel's ``PairPlan`` also sums R) and
``potentials.hessian_diag``.
"""

from __future__ import annotations

import math

import numpy as np

from . import constants as _constants
from .dynamics import (
    Ensemble, PairPlan, add_block, advance_rk4, alignment_force, alignment_plan, alignment_sums,
)
from .hydro1d import BumpDensity, ThresholdReport, VelocityProfile, midpoint_quadrature
from .kernels import ConstantKernel, Kernel, kernel_eval_sq, kernel_slope_over_r_sq
# hess_diag_at is unused here but stays imported: the benchmark's tracer rebinds it.
from .potentials import Potential, grad_at, hess_diag_at, hessian_diag  # noqa: F401

__all__ = [
    "BumpDensity2D",
    "SineShearVelocity",
    "init_characteristics_2d",
    "rhs_2d",
    "step_2d",
    "spectral_arrays",
    "classify_2d_quadratic",
    "classify_2d_general",
]


# BumpDensity2D and SineShearVelocity are the names bench/layer_timings.py builds its 2D state with.
BumpDensity2D = BumpDensity


def SineShearVelocity(amplitude: float, rotation: float = 0.0) -> VelocityProfile:
    """The sinusoidal profile under the name bench/layer_timings.py calls."""
    return VelocityProfile("sinusoidal", amplitude, rotation)


def init_characteristics_2d(
    density: BumpDensity,
    velocity: VelocityProfile,
    n_side: int,
    kernel: Kernel,
    m0: float = 1.0,
) -> Ensemble:
    """Midpoint tensor quadrature of the density with analytic initial gradient.

    ``kernel`` is not read; bench/spans.py binds this signature.
    """
    x, m, _ = midpoint_quadrature(density, n_side, 2, m0)
    return Ensemble(x=x, u=velocity.value(x), m=m, grad_u=velocity.jacobian(x))


def _pair_terms_2d(plan: PairPlan, x, u):
    """Alignment force, phi*rho and gradient forcing R from one pass of a ``PairPlan(m, kernel, 3)``.

    The pass visits the pairs i <= j with the plan's masses and kernel.
    R[:, :, l] is the alignment form with the antisymmetric weights (phi'(r)/r) (x_i - x_j)_l.
    """
    b, sums, blocks = plan.run(x, u)
    for lo, hi, r_sq, spare in blocks:
        q = np.add(r_sq, 1.0, out=r_sq)  # 1 + r^2, which the power law reads twice
        phi = kernel_eval_sq(plan.kernel, q, out=spare, shifted=True)
        slope = kernel_slope_over_r_sq(plan.kernel, q, phi, out=q, shifted=True)
        add_block(sums[0], phi, b, lo, hi)
        for l in range(2):
            weights = np.multiply(plan.difference(l, lo, hi, spare), slope, out=spare)
            add_block(sums[1 + l], weights, b, lo, hi, sign=-1.0)
    force, phi_conv = alignment_sums(sums[0], u)
    return force, phi_conv, np.stack([alignment_sums(s, u)[0] for s in sums[1:]], axis=-1)


def _step_rhs_2d(m, kernel, potential):
    """The right-hand side f(x, u, grad_u, dx, du, dgrad_u) of one step along the characteristics.

    Its alignment (``alignment_plan``, or a ``PairPlan(m, kernel, 3)`` that ``_pair_terms_2d`` runs to
    also sum R) and Hessian are built once.  The stages call ``alignment_force`` and ``grad_at``
    through this module's globals, which the benchmark's tracer rebinds.
    """
    constant = isinstance(kernel, ConstantKernel)
    plan = alignment_plan(m, kernel) if constant else PairPlan(m, kernel, 3)
    hess = hessian_diag(potential)

    def f(x, u, grad_u, dx, du, d_grad):
        if constant:
            force, phi_conv = alignment_force(x, u, m, kernel, plan)
        else:
            force, phi_conv, forcing = _pair_terms_2d(plan, x, u)
            phi_conv = phi_conv[:, None, None]
        np.copyto(dx, u)
        np.subtract(force, grad_at(potential, x), out=du)
        # [G^2]_ij = G_i0 G_0j + G_i1 G_1j on (2, 2, N) views, in C order: each inner loop runs over the N
        # characteristics (numpy's own order would run it over j, two entries long)
        g, square = grad_u.transpose(1, 2, 0), d_grad.transpose(1, 2, 0)
        np.multiply(g[:, :1], g[:1], out=square, order="C")
        np.add(square, np.multiply(g[:, 1:], g[1:], order="C"), out=square, order="C")
        np.negative(d_grad, out=d_grad)
        d_grad -= phi_conv * grad_u
        if not constant:
            d_grad += forcing
        # the diagonal entries (0, 0) and (1, 1) as one (N, 2) view
        d_grad.reshape(-1, 4)[:, ::3] -= hess(x)

    return f


def rhs_2d(state: Ensemble, kernel: Kernel, potential: Potential):
    """Time derivative (dx, du, dgrad_u) along the characteristics."""
    arrays = (state.x, state.u, state.grad_u)
    out = tuple(map(np.empty_like, arrays))
    _step_rhs_2d(state.m, kernel, potential)(*arrays, *out)
    return out


def step_2d(state: Ensemble, kernel: Kernel, potential: Potential, dt: float) -> Ensemble:
    """One RK4 step; raises BlowupSignal when the new state leaves the trusted range."""
    return advance_rk4(state, state._scratch.rhs(_step_rhs_2d, state.m, kernel, potential), dt)


def spectral_arrays(grad_u: np.ndarray, phi_conv: np.ndarray):
    """Vectorized (d, eta_S, omega, e) for a stack of 2x2 gradients."""
    d = grad_u[..., 0, 0] + grad_u[..., 1, 1]
    s_off = 0.5 * (grad_u[..., 0, 1] + grad_u[..., 1, 0])
    s_diff = grad_u[..., 0, 0] - grad_u[..., 1, 1]
    eta_s = np.sqrt(s_diff * s_diff + 4.0 * s_off * s_off)
    omega = 0.5 * (grad_u[..., 1, 0] - grad_u[..., 0, 1])
    return d, eta_s, omega, d + phi_conv


def _threshold_report(verdict: str, constants: dict, margins: dict) -> ThresholdReport:
    finite = [v for v in margins.values() if not math.isnan(v)]
    margin = min(finite) if finite else math.nan
    return ThresholdReport(verdict, ";".join(margins), margin, margins, constants)


def classify_2d_quadratic(
    a: float,
    m0: float,
    phi_minus: float,
    lam: float,
    c_inf: float,
    c_star: float,
    etaS0_max: float,
    omega0_max: float,
    deltaEinf0: float,
    e0_min: float,
) -> ThresholdReport:
    """Subcriticality test for the quadratic potential.

    ``lam``, ``c_inf`` and ``c_star`` are the constants report's decay rate,
    uniform flocking constant and gap-forcing constant for these kernel
    bounds.  The gap-forcing budget is C_star * sqrt(deltaEinf0), and the
    test requires

        c1^2 = (m0 phi_minus)^2 - (etaS0_max + C_star sqrt(deltaEinf0))^2 - 4a > 0
        e0_min >= 0.

    ``deltaEinf0`` is the initial worst-pair fluctuation max(|du|^2 + a|dx|^2).
    The gap stays within ``etaS_budget`` = etaS0_max + C_star sqrt(deltaEinf0)
    and the vorticity within ``omega_budget`` = omega0_max + (C_star/2) sqrt(deltaEinf0).
    """
    if not a > 0.0:
        raise ValueError(f"quadratic classifier needs a > 0, got {a}")
    forcing = c_star * float(np.sqrt(deltaEinf0))
    budget = etaS0_max + forcing
    c1_sq = (m0 * phi_minus) ** 2 - budget * budget - 4.0 * a
    subcritical = c1_sq > 0.0 and e0_min >= 0.0
    consts = {
        "lambda": lam,
        "C_inf": c_inf,
        "C_star": c_star,
        "etaS_budget": budget,
        "omega_budget": omega0_max + 0.5 * forcing,
        "c1_sq": c1_sq,
        "c1": float(np.sqrt(c1_sq)) if c1_sq > 0.0 else float("nan"),
    }
    margins = {"c1": c1_sq, "c1_cond1": e0_min}
    return _threshold_report("subcritical_quadratic" if subcritical else "not_subcritical", consts, margins)


def classify_2d_general(
    a: float,
    A: float,
    m0: float,
    phi_minus: float,
    dphi_inf: float,
    u_max: float,
    etaS0_max: float,
    omega0_max: float,
    e0_min: float,
) -> ThresholdReport:
    """Subcriticality test for a general uniformly convex potential.

    Uses a uniform velocity bound u_max instead of a decay estimate: the
    gap forcing is bounded by C_max = 8 dphi_inf m0 u_max + 2A, which must
    stay below C_A = (m0 phi_minus)^2/2 - 2A; the initial gap and e are
    then compared against sqrt(C_A +- sqrt(C_A^2 - C_max^2)).  The gap
    stays within ``etaS_budget`` = max(etaS0_max, C_max/c2), and the
    vorticity within ``omega_budget`` = max(omega0_max, (C_max - 2A)/(2 c2)):
    the transport forcing is half the kernel part of C_max, over the
    persistent floor c2 of e.  Without a budget (C_max >= C_A), c2 and both budgets are NaN.
    """
    if not a > 0.0 or A < a:
        raise ValueError(f"need A >= a > 0, got a={a}, A={A}")
    if not u_max >= 0.0:
        raise ValueError(f"need a velocity bound u_max >= 0, got {u_max}")
    c_max, c_a, c2, upper = _constants.general_gap_budget(A, m0, phi_minus, dphi_inf, u_max)
    consts = {"C_max": c_max, "C_A": c_a}
    margins = {"Cmi": c_a - c_max}
    if c2 is None:
        consts.update({"c2": float("nan"), "etaS_budget": float("nan"), "omega_budget": float("nan")})
        margins.update({"etaS_cond2": float("nan"), "c1_cond2": float("nan")})
        return _threshold_report("not_subcritical", consts, margins)
    consts.update({
        "c2": c2,
        "etaS_upper": upper,
        "etaS_budget": max(etaS0_max, c_max / c2),
        "omega_budget": max(omega0_max, 0.5 * (c_max - 2.0 * A) / c2),
    })
    margins.update({"etaS_cond2": upper - etaS0_max, "c1_cond2": e0_min - c2})
    subcritical = margins["etaS_cond2"] >= 0.0 and margins["c1_cond2"] > 0.0
    return _threshold_report("subcritical_general" if subcritical else "not_subcritical", consts, margins)
