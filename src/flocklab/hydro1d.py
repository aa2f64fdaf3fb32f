"""1D alignment hydrodynamics along Lagrangian characteristics.

The compressible alignment system in one space dimension reduces, along
the characteristics dx/dt = u, to closed ODEs for the density value rho
and the threshold variable

    e = du/dx + phi * rho,

namely

    rho' = -rho (e - phi*rho)
    e'   = -e (e - phi*rho) - U''(x)

where phi*rho is the kernel convolution with the density, realized here
as the quadrature sum over characteristics sum_j m_j phi(|x - x_j|).
The sign of e at t = 0 (relative to explicit thresholds built from the
convexity bounds of U and the kernel bounds) decides between global
smoothness and finite-time gradient blow-up; classify_1d evaluates those
thresholds, and detect_blowup locates the blow-up time in a simulated
min-e series.

The state is a ``dynamics.Ensemble`` whose x and u are (N, 1) and which
carries e and rho; ``step_1d`` hands this module's right-hand side to the
shared RK4 driver, which also caps |e| at E_BLOWUP_CAP.  The evolved rho
is carried for output only: the (x, u, e) dynamics always reads the
quadrature sums, never the evolved density, so quadrature error cannot
feed back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import E_BLOWUP_CAP, Ensemble, advance_rk4, alignment_force, conv_phi
from .kernels import Kernel
from .potentials import Potential, grad_at, hess_diag_at

__all__ = [
    "E_BLOWUP_CAP",
    "BumpDensity",
    "LinearVelocity",
    "SineVelocity",
    "ThresholdReport1D",
    "init_characteristics",
    "step_1d",
    "classify_1d",
    "detect_blowup",
    "smooth_lower_root",
    "e_upper_bound",
]

@dataclass(frozen=True)
class BumpDensity:
    """Compactly supported profile height * max(0, 1 - (x/L)^2)^2 on [-L, L]."""

    height: float = 1.0
    half_width: float = 1.0

    def __post_init__(self):
        if not (self.height > 0.0 and self.half_width > 0.0):
            raise ValueError("bump density needs positive height and half_width")

    def value(self, x):
        s = np.clip(1.0 - (np.asarray(x, dtype=float) / self.half_width) ** 2, 0.0, None)
        return self.height * s * s


@dataclass(frozen=True)
class LinearVelocity:
    """u(x) = slope * x."""

    slope: float

    def value(self, x):
        return self.slope * np.asarray(x, dtype=float)

    def deriv(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.slope)


@dataclass(frozen=True)
class SineVelocity:
    """u(x) = amplitude * sin(x)."""

    amplitude: float

    def value(self, x):
        return self.amplitude * np.sin(np.asarray(x, dtype=float))

    def deriv(self, x):
        return self.amplitude * np.cos(np.asarray(x, dtype=float))


def init_characteristics(
    density: BumpDensity,
    velocity,
    n: int,
    kernel: Kernel,
    m0: float = 1.0,
) -> Ensemble:
    """Place n characteristics at midpoint quadrature nodes of the density support.

    Masses are m_i = rho0(x_i) dx, rescaled so they sum to m0 exactly.  The
    initial e is assembled from the analytic profile derivative plus the
    quadrature convolution, which removes any finite-difference ambiguity
    at t = 0.
    """
    if n < 1:
        raise ValueError("need at least one characteristic")
    half = density.half_width
    dx = 2.0 * half / n
    x = -half + (np.arange(n) + 0.5) * dx
    w = density.value(x) * dx
    total = w.sum()
    if not total > 0.0:
        raise ValueError("density profile has zero total mass on its support")
    m = w * (m0 / total)
    rho = m / dx
    e = velocity.deriv(x) + conv_phi(x[:, None], m, kernel)
    return Ensemble(x=x[:, None], u=velocity.value(x)[:, None], m=m, e=e, rho=rho)


def _rhs_arrays_1d(x, u, e, rho, m, kernel, potential):
    """Time derivative (dx, du, de, drho) along the characteristics."""
    force, phi_conv = alignment_force(x, u, m, kernel)
    shear = e - phi_conv
    de = -e * shear - hess_diag_at(potential, x)[:, 0]
    return u, force - grad_at(potential, x), de, -rho * shear


def step_1d(state: Ensemble, kernel: Kernel, potential: Potential, dt: float) -> Ensemble:
    """One RK4 step; raises BlowupSignal when the new state leaves the trusted range."""
    return advance_rk4(
        state, lambda x, u, e, rho: _rhs_arrays_1d(x, u, e, rho, state.m, kernel, potential), dt
    )


@dataclass(frozen=True)
class ThresholdReport1D:
    """Verdict of the 1D critical-threshold test.

    ``margin`` is the slack of the inequality that decided the verdict
    (positive when the verdict fired; for ``indeterminate`` it is the
    largest of the candidate slacks, all nonpositive).  The thresholds use
    strict inequalities, so a zero margin is indeterminate.
    """

    verdict: str
    triggered_condition: str
    margin: float


def smooth_lower_root(m0: float, phi_minus: float, c: float) -> float:
    """Lower fixed point m0*phi/2 - sqrt((m0*phi)^2/4 - c) of the e-dynamics."""
    disc = (m0 * phi_minus) ** 2 / 4.0 - c
    if disc < 0.0:
        raise ValueError("no real fixed point: (m0*phi)^2/4 < c")
    return m0 * phi_minus / 2.0 - float(np.sqrt(disc))


def e_upper_bound(e0_max: float, m0: float, phi_plus: float, a: float) -> float:
    """Uniform upper bound on e: max(e0_max, 2*m0*phi_plus, sqrt(max(0, -2a)))."""
    return max(e0_max, 2.0 * m0 * phi_plus, float(np.sqrt(max(0.0, -2.0 * a))))


def classify_1d(
    a: float,
    A: float,
    m0: float,
    phi_minus: Optional[float],
    phi_plus: float,
    e0_min: float,
    e0_max: float,
) -> ThresholdReport1D:
    """Classify 1D initial data as smooth_guaranteed, blowup_guaranteed or indeterminate.

    ``a`` and ``A`` are the lower/upper bounds on U'' and phi_minus/phi_plus
    the kernel bounds; ``e0_min`` is the minimum of du0/dx + phi*rho0 over
    the support (``e0_max`` is accepted for context but the thresholds only
    involve the minimum).  Smoothness is guaranteed when

        A < (m0 phi_minus)^2 / 4   and   e0_min > lower root of e(e - m0 phi_minus) + A,

    blow-up when a alone is supercritical (a > (m0 phi_plus)^2/4, tag
    assuB_1), or a > 0 with e0_min below the phi_plus lower root (assuB_2),
    or a <= 0 with e0_min below the phi_minus lower root (assuB_3).

    ``phi_minus=None`` means no kernel floor is known (a zero floor):
    smoothness can then never be certified, and only assuB_1 and assuB_2,
    which need no floor, can fire.
    """
    if A < a:
        raise ValueError(f"need A >= a, got a={a}, A={A}")
    candidates = []
    if phi_minus is not None:
        if not (phi_plus >= phi_minus > 0.0):
            raise ValueError("need phi_plus >= phi_minus > 0")
        # smoothness side
        gap_smooth = (m0 * phi_minus) ** 2 / 4.0 - A
        if gap_smooth > 0.0:
            margin_smooth = min(gap_smooth, e0_min - smooth_lower_root(m0, phi_minus, A))
        else:
            margin_smooth = gap_smooth
        if margin_smooth > 0.0:
            return ThresholdReport1D("smooth_guaranteed", "1d_assu2+1d_assu3", margin_smooth)
        candidates.append(margin_smooth)

    # blow-up side
    margin_uncond = a - (m0 * phi_plus) ** 2 / 4.0
    if margin_uncond > 0.0:
        return ThresholdReport1D("blowup_guaranteed", "assuB_1", margin_uncond)
    candidates.append(margin_uncond)
    if a > 0.0:
        margin_super = smooth_lower_root(m0, phi_plus, a) - e0_min
        if margin_super > 0.0:
            return ThresholdReport1D("blowup_guaranteed", "assuB_2", margin_super)
        candidates.append(margin_super)
    elif phi_minus is not None:
        margin_neg = smooth_lower_root(m0, phi_minus, a) - e0_min
        if margin_neg > 0.0:
            return ThresholdReport1D("blowup_guaranteed", "assuB_3", margin_neg)
        candidates.append(margin_neg)
    return ThresholdReport1D("indeterminate", "none", max(candidates))


def detect_blowup(times, min_e, threshold: float = -E_BLOWUP_CAP) -> Optional[tuple[float, float]]:
    """First sample interval in which the min-e series crosses the threshold.

    ``threshold`` must be negative.  A non-finite sample following a finite
    one counts as a crossing: it means the blow-up ran past the threshold
    within a single step.  Returns ``(t_lo, t_hi)`` or ``None``.
    """
    if not threshold < 0.0:
        raise ValueError(f"threshold must be negative, got {threshold}")
    times = np.asarray(times, dtype=float)
    vals = np.asarray(min_e, dtype=float)
    if times.shape != vals.shape or times.ndim != 1:
        raise ValueError("times and min_e must be equal-length 1D series")
    if times.size == 0:
        return None
    below = (vals < threshold) | ~np.isfinite(vals)
    if below[0]:
        return float(times[0]), float(times[0])
    idx = np.nonzero(below[1:] & ~below[:-1])[0]
    if idx.size == 0:
        return None
    k = int(idx[0])
    return float(times[k]), float(times[k + 1])
