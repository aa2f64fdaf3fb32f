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
thresholds.  A run's blow-up bracket is the interval of the step in which
the RK4 driver raised ``dynamics.BlowupSignal``; ``detect_blowup`` is a
helper that finds the first threshold crossing in a recorded min-e series.

The state is a ``dynamics.Ensemble`` whose x and u are (N, 1) and which
carries e and rho; ``step_1d`` hands this module's in-place right-hand
side to the shared RK4 driver, which also caps |e| at E_BLOWUP_CAP.  The evolved rho
is carried for output only: the (x, u, e) dynamics always reads the
quadrature sums, never the evolved density, so quadrature error cannot
feed back.

The initial data of every mode are declared here once, in 1D and 2D: the
separable ``BumpDensity``, the linear or sinusoidal ``VelocityProfile`` and
the ``midpoint_quadrature`` that places characteristics on the bump.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# alignment_force, grad_at and hess_diag_at are unused here but stay: the benchmark's tracer rebinds them.
from .dynamics import (  # noqa: F401
    E_BLOWUP_CAP, Ensemble, _step_rhs_u, advance_rk4, alignment_force, conv_phi,
)
from .kernels import Kernel
from .potentials import Potential, grad_at, hess_diag_at, hessian_diag  # noqa: F401

__all__ = [
    "E_BLOWUP_CAP",
    "BumpDensity",
    "VelocityProfile",
    "ThresholdReport",
    "midpoint_quadrature",
    "init_characteristics",
    "step_1d",
    "classify_1d",
    "detect_blowup",
    "smooth_lower_root",
    "e_upper_bound",
]

@dataclass(frozen=True)
class BumpDensity:
    """Separable compactly supported profile height * prod_k max(0, 1 - (x_k/L)^2)^2 on [-L, L]^d."""

    height: float = 1.0
    half_width: float = 1.0

    def __post_init__(self):
        if not (self.height > 0.0 and self.half_width > 0.0):
            raise ValueError("bump density needs positive height and half_width")

    def value(self, x):
        """The density at points x of shape (..., d)."""
        s = np.clip(1.0 - (np.asarray(x, dtype=float) / self.half_width) ** 2, 0.0, None)
        return self.height * (s * s).prod(axis=-1)


@dataclass(frozen=True)
class VelocityProfile:
    """Analytic u0 from g(s) = s ("linear") or sin s ("sinusoidal").

    In 1D u = amplitude g(x); in 2D u = amplitude (g(x2), g(x1)) + rotation (-x2, x1).
    """

    kind: str
    amplitude: float
    rotation: float = 0.0

    def __post_init__(self):
        if self.kind not in ("linear", "sinusoidal"):
            raise ValueError(f"velocity profile is linear or sinusoidal, got {self.kind!r}")

    def _g(self, s):
        return s if self.kind == "linear" else np.sin(s)

    def _dg(self, s):
        return 1.0 if self.kind == "linear" else np.cos(s)

    def value(self, x):
        """u at points x of shape (N, d)."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] == 1:
            return self.amplitude * self._g(x)
        out = np.empty_like(x)
        out[..., 0] = self.amplitude * self._g(x[..., 1]) - self.rotation * x[..., 1]
        out[..., 1] = self.amplitude * self._g(x[..., 0]) + self.rotation * x[..., 0]
        return out

    def jacobian(self, x):
        """du_i/dx_j at points x of shape (N, d), as (N, d, d)."""
        x = np.asarray(x, dtype=float)
        n, d = x.shape
        jac = np.zeros((n, d, d))
        if d == 1:
            jac[:, 0, 0] = self.amplitude * self._dg(x[:, 0])
        else:
            jac[:, 0, 1] = self.amplitude * self._dg(x[:, 1]) - self.rotation
            jac[:, 1, 0] = self.amplitude * self._dg(x[:, 0]) + self.rotation
        return jac


def midpoint_quadrature(density: BumpDensity, n_side: int, d: int, m0: float):
    """Midpoint tensor nodes of [-L, L]^d, n_side per axis, with masses rho0(x) dx^d rescaled to sum to m0.

    Returns ``(x, m, dx)``: x is (n_side^d, d) in row-major order of the axes.
    """
    if n_side < 1:
        raise ValueError("need at least one node per side")
    half = density.half_width
    dx = 2.0 * half / n_side
    axis = -half + (np.arange(n_side) + 0.5) * dx
    x = np.stack([g.ravel() for g in np.meshgrid(*[axis] * d, indexing="ij")], axis=-1)
    w = density.value(x)
    for _ in range(d):
        w = w * dx
    total = w.sum()
    if not total > 0.0:
        raise ValueError("density profile has zero total mass on its support")
    return x, w * (m0 / total), dx


def init_characteristics(
    density: BumpDensity,
    velocity: VelocityProfile,
    n: int,
    kernel: Kernel,
    m0: float = 1.0,
) -> Ensemble:
    """Place n characteristics at the midpoint quadrature nodes of the density support.

    The initial e is assembled from the analytic profile derivative plus the
    quadrature convolution, which removes any finite-difference ambiguity
    at t = 0.
    """
    x, m, dx = midpoint_quadrature(density, n, 1, m0)
    e = velocity.jacobian(x)[:, 0, 0] + conv_phi(x, m, kernel)
    return Ensemble(x=x, u=velocity.value(x), m=m, e=e, rho=m / dx)


def _step_rhs_1d(m, kernel, potential):
    """The right-hand side f(x, u, e, rho, dx, du, de, drho) of one step: the particle one, then (e, rho)."""
    motion, hess = _step_rhs_u(m, kernel, potential), hessian_diag(potential)

    def f(x, u, e, rho, dx, du, de, drho):
        # with shear = e - phi*rho: de = -e shear - U''(x) and drho = -rho shear, bit for bit
        neg_shear = motion(x, u, dx, du) - e
        np.multiply(rho, neg_shear, out=drho)
        np.subtract(neg_shear * e, hess(x.ravel()), out=de)

    return f


def step_1d(state: Ensemble, kernel: Kernel, potential: Potential, dt: float) -> Ensemble:
    """One RK4 step; raises BlowupSignal when the new state leaves the trusted range."""
    return advance_rk4(state, state._scratch.rhs(_step_rhs_1d, state.m, kernel, potential), dt)


@dataclass(frozen=True)
class ThresholdReport:
    """Verdict of a critical-threshold classifier, one shape in 1D and 2D.

    ``margin`` is the slack of the inequality ``condition`` that decided the
    verdict.  In 1D it is positive when the verdict fired; for
    ``indeterminate`` (condition ``none``) it is the largest of the
    candidate slacks, all nonpositive, and the strict thresholds make a zero
    margin indeterminate.  The 2D classifiers fill ``margins`` with the
    slack of every inequality; there ``condition`` joins the margin names
    with ";" and ``margin`` is the smallest margin that is not NaN (NaN if
    none is).  In 1D ``margins`` is empty.  ``constants`` holds every bound
    that the verdict's check rows read, under the key each row names: in 1D
    the e bounds of ``smooth_guaranteed`` (empty for the other verdicts), in
    2D the budget with its gap and vorticity bounds.
    """

    verdict: str
    condition: str
    margin: float
    margins: dict = field(default_factory=dict)
    constants: dict = field(default_factory=dict)


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
    a: float, A: float, m0: float, phi_minus: Optional[float], phi_plus: float, e0_min: float, e0_max: float
) -> ThresholdReport:
    """Classify 1D initial data as smooth_guaranteed, blowup_guaranteed or indeterminate.

    ``a`` and ``A`` are the lower/upper bounds on U'' and phi_minus/phi_plus
    the kernel bounds; ``e0_min`` and ``e0_max`` are the extremes of
    du0/dx + phi*rho0 over the support.  The thresholds read only
    ``e0_min``.  Smoothness is guaranteed when

        A < (m0 phi_minus)^2 / 4   and   e0_min > lower root of e(e - m0 phi_minus) + A,

    blow-up when a alone is supercritical (a > (m0 phi_plus)^2/4, tag
    assuB_1), or a > 0 with e0_min below the phi_plus lower root (assuB_2),
    or a <= 0 with e0_min below the phi_minus lower root (assuB_3).  A
    smooth_guaranteed report's ``constants`` carry the bounds e then keeps
    for all time: that lower root (``e_lower_root``) and the a-priori upper
    bound ``e_upper_bound`` gives from ``e0_max`` (``e_upper``).

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
        margin_smooth = gap_smooth
        if gap_smooth > 0.0:
            root = smooth_lower_root(m0, phi_minus, A)
            margin_smooth = min(gap_smooth, e0_min - root)
        if margin_smooth > 0.0:
            bounds = {"e_lower_root": root, "e_upper": e_upper_bound(e0_max, m0, phi_plus, a)}
            return ThresholdReport("smooth_guaranteed", "1d_assu2+1d_assu3", margin_smooth, constants=bounds)
        candidates.append(margin_smooth)

    # blow-up side
    margin_uncond = a - (m0 * phi_plus) ** 2 / 4.0
    if margin_uncond > 0.0:
        return ThresholdReport("blowup_guaranteed", "assuB_1", margin_uncond)
    candidates.append(margin_uncond)
    if a > 0.0:
        margin_super = smooth_lower_root(m0, phi_plus, a) - e0_min
        if margin_super > 0.0:
            return ThresholdReport("blowup_guaranteed", "assuB_2", margin_super)
        candidates.append(margin_super)
    elif phi_minus is not None:
        margin_neg = smooth_lower_root(m0, phi_minus, a) - e0_min
        if margin_neg > 0.0:
            return ThresholdReport("blowup_guaranteed", "assuB_3", margin_neg)
        candidates.append(margin_neg)
    return ThresholdReport("indeterminate", "none", max(candidates))


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
