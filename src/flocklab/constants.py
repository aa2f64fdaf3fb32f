"""Closed-form constants of the flocking and regularity estimates.

Every quantitative bound checked by this package comes with explicit
constants built from a handful of scalars: the convexity bounds (a, A) of
the potential, the total mass m0, the kernel bounds (phi_minus, phi_plus,
dphi_inf), and initial energies.  This module evaluates those constants
exactly as stated by the estimates; each entry of the report carries its
defining formula as a plain-text tag so a reader can re-derive the number
without chasing code.

All functions are pure: identical inputs give bitwise-identical outputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import Optional

from .kernels import ConstantKernel, Kernel, PowerLawKernel, kernel_eval

__all__ = [
    "decay_rate",
    "decay_rate_f1",
    "linf_constant",
    "linf_constant_via_f1",
    "linf_constant_conservative",
    "pair_rates",
    "pair_beta",
    "support_scale",
    "phi_min_from_support",
    "reduction_constants",
    "velocity_bound",
    "gap_forcing_constant",
    "general_gap_budget",
    "ConstantsReport",
    "constants_report",
]


def decay_rate(a: float, m0: float, phi_minus: float, phi_plus: float) -> float:
    """Exponential rate of the L2 fluctuation bound for quadratic confinement.

    lambda = 0.5 * min(m0 phi_minus / (m0^2 phi_plus^2 / a + 3/2), sqrt(a)/2).
    Behaves like O(a) for weak potentials and O(1) for strong ones.
    """
    _require(a > 0.0, "a > 0")
    _require(phi_plus >= phi_minus > 0.0 and m0 > 0.0, "phi_plus >= phi_minus > 0, m0 > 0")
    return 0.5 * min(
        m0 * phi_minus / (m0 * m0 * phi_plus * phi_plus / a + 1.5),
        math.sqrt(a) / 2.0,
    )


def decay_rate_f1(a: float, m0: float, phi_minus: float, phi_plus: float) -> float:
    """Cross-term weight of the per-agent perturbed energy; at least half of decay_rate.

    lambda_1 = 0.25 * min(m0 phi_minus / (1 + (m0^2 phi_plus^2 + 1)/a + 1/4), sqrt(a)/2).
    """
    _require(a > 0.0, "a > 0")
    _require(phi_plus >= phi_minus > 0.0 and m0 > 0.0, "phi_plus >= phi_minus > 0, m0 > 0")
    return 0.25 * min(
        m0 * phi_minus / (1.0 + (m0 * m0 * phi_plus * phi_plus + 1.0) / a + 0.25),
        math.sqrt(a) / 2.0,
    )


def linf_constant(a: float, m0: float, phi_minus: float, phi_plus: float) -> float:
    """Prefactor of the worst-pair fluctuation bound (statement form).

    C_inf = 4 (1 + phi_plus^2 m0^2 (2/(m0 phi_minus lambda) + 4/a)).
    """
    lam = decay_rate(a, m0, phi_minus, phi_plus)
    return 4.0 * (1.0 + phi_plus**2 * m0**2 * (2.0 / (m0 * phi_minus * lam) + 4.0 / a))


def linf_constant_via_f1(a: float, m0: float, phi_minus: float, phi_plus: float) -> float:
    """Prefactor of the worst-pair bound assembled through the perturbed energy.

    Uses the source constant C0 = (1/(2 m0 phi_minus) + 2 lambda_1 / a) phi_plus^2
    and reads C_inf = 4 (1 + 4 C0 m0^2 / lambda).
    """
    lam = decay_rate(a, m0, phi_minus, phi_plus)
    lam1 = decay_rate_f1(a, m0, phi_minus, phi_plus)
    c0 = (1.0 / (2.0 * m0 * phi_minus) + 2.0 * lam1 / a) * phi_plus**2
    return 4.0 * (1.0 + 4.0 * c0 * m0 * m0 / lam)


def linf_constant_conservative(a: float, m0: float, phi_minus: float, phi_plus: float) -> float:
    """The larger of the two C_inf evaluations; used by the acceptance checks."""
    return max(
        linf_constant(a, m0, phi_minus, phi_plus),
        linf_constant_via_f1(a, m0, phi_minus, phi_plus),
    )


def pair_beta(a: float, A: float, K: float) -> float:
    """Velocity weight beta = 2 a K / A^2 of the pair functional."""
    _require(a > 0.0 and A > 0.0 and K > 0.0, "a, A, K > 0")
    return 2.0 * a * K / (A * A)


def pair_rates(a: float, A: float, K: float) -> tuple[float, float, float]:
    """Decay and comparability constants (mu1, mu2, mu3) of the pair functional.

    For a constant coupling K = m0 * phi with beta = 2 a K / A^2, the pair
    functional K/2 |dx|^2 + dx.du + beta/2 |du|^2 dissipates at rate

        mu1 = y - sqrt(y^2 - y + 1),   y = a K^2 / A^2,

    and is squeezed between mu3 and mu2 times (|du|^2 + a |dx|^2), with

        mu_{2,3} = (p +- sqrt(p^2 - 4 a q)) / (2a),
        p = a^2 K / A^2 + K / 2,   q = a K^2 / (2 A^2) - 1/4.

    Positivity of mu1 (and mu2 > mu3 > 0) requires the stability condition
    K > A / sqrt(a); a ValueError is raised otherwise.
    """
    _require(a > 0.0 and A >= a, "A >= a > 0")
    if not K > A / math.sqrt(a):
        raise ValueError(
            f"stability condition fails: K = {K} must exceed A/sqrt(a) = {A / math.sqrt(a)}"
        )
    y = a * K * K / (A * A)
    mu1 = y - math.sqrt(y * y - y + 1.0)
    p = a * a * K / (A * A) + K / 2.0
    q = a * K * K / (2.0 * A * A) - 0.25
    disc = math.sqrt(p * p - 4.0 * a * q)
    mu2 = (p + disc) / (2.0 * a)
    mu3 = (p - disc) / (2.0 * a)
    return mu1, mu2, mu3


def support_scale(
    a: float,
    m0: float,
    energy0: float,
    particle_energy0: float,
    kernel: Kernel,
) -> float:
    """Uniform bound R0 on the maximal particle energy under quadratic confinement.

    R0 is the smallest scale with
    integral_{P0}^{R0} phi(sqrt(8r/a)) dr = (phi_plus / 4 m0) E0,
    evaluated in closed form:

    * power law, beta < 1:
      R0 = a/8 [ ((1 + 8 P0/a)^(1-beta) + 2(1-beta) phi_plus E0 / (a c0 m0))^(1/(1-beta)) - 1 ]
    * power law, beta = 1 (logarithmic limit of the above):
      R0 = a/8 [ (1 + 8 P0/a) exp(2 phi_plus E0 / (a c0 m0)) - 1 ]
    * constant kernel: R0 = P0 + E0 / (4 m0).

    Power laws with beta > 1 decay too fast for a finite R0 to exist in
    general; a ValueError is raised.
    """
    _require(a > 0.0 and m0 > 0.0, "a > 0, m0 > 0")
    _require(energy0 >= 0.0 and particle_energy0 >= 0.0, "nonnegative initial energies")
    if isinstance(kernel, ConstantKernel):
        return particle_energy0 + energy0 / (4.0 * m0)
    if isinstance(kernel, PowerLawKernel):
        c0, beta = kernel.c0, kernel.beta
        phi_plus = c0
        if beta > 1.0:
            raise ValueError(f"support scale needs beta <= 1, got beta = {beta}")
        base = 1.0 + 8.0 * particle_energy0 / a
        if beta == 1.0:
            grown = base * math.exp(2.0 * phi_plus * energy0 / (a * c0 * m0))
        else:
            grown = (
                base ** (1.0 - beta) + 2.0 * (1.0 - beta) * phi_plus * energy0 / (a * c0 * m0)
            ) ** (1.0 / (1.0 - beta))
        return a / 8.0 * (grown - 1.0)
    raise ValueError(f"no closed-form support scale for kernel {kernel!r}")


def phi_min_from_support(kernel: Kernel, a: float, r0: float) -> float:
    """Kernel floor phi(sqrt(8 R0 / a)) implied by the support bound R0."""
    _require(a > 0.0 and r0 >= 0.0, "a > 0, R0 >= 0")
    return float(kernel_eval(kernel, math.sqrt(8.0 * r0 / a)))


def reduction_constants(
    a: float, A: float, m0: float, phi_minus: float, phi_plus: float, energy0: float
) -> tuple[float, float, float, float]:
    """Constants (c, C0, C_F, C_plus) of the uniform velocity/position bound.

    c      = min(m0 phi_minus / (A + 2(A + m0^2 phi_plus^2)), sqrt(a / (8 A^2)))
    C0     = (2/(m0 phi_minus) + 4c) phi_plus^2 m0 E0
    C_F    = 2 A C0 / (a^2 c)
    C_plus = 2 sqrt(A) (1 + 1/sqrt(a))

    C_F scales like 1/phi_minus^2 for small kernel floors, which is what
    drives the O(1/phi_minus) scaling of the velocity bound.
    """
    _require(a > 0.0 and A >= a, "A >= a > 0")
    _require(phi_plus >= phi_minus > 0.0 and m0 > 0.0, "phi_plus >= phi_minus > 0, m0 > 0")
    c = min(
        m0 * phi_minus / (A + 2.0 * (A + m0 * m0 * phi_plus * phi_plus)),
        math.sqrt(a / (8.0 * A * A)),
    )
    c0 = (2.0 / (m0 * phi_minus) + 4.0 * c) * phi_plus**2 * m0 * energy0
    c_f = 2.0 * A * c0 / (a * a * c)
    c_plus = 2.0 * math.sqrt(A) * (1.0 + 1.0 / math.sqrt(a))
    return c, c0, c_f, c_plus


def velocity_bound(
    a: float,
    A: float,
    m0: float,
    phi_minus: float,
    phi_plus: float,
    energy0: float,
    max0_speed_position: float,
) -> float:
    """A-priori uniform bound on max(|u| + |x|) over the whole evolution.

    max(|u| + |x|) <= max(C_plus * max0, 2 (1 + 1/sqrt(a)) sqrt(C_F)) where
    max0 is the initial maximum of |u| + |x| over the support.
    """
    c, _, c_f, c_plus = reduction_constants(a, A, m0, phi_minus, phi_plus, energy0)
    del c
    return max(
        c_plus * max0_speed_position,
        2.0 * (1.0 + 1.0 / math.sqrt(a)) * math.sqrt(c_f),
    )


def gap_forcing_constant(lam: float, m0: float, dphi_inf: float, c_inf: float) -> float:
    """Budget constant C_star = (64 / lambda) m0 dphi_inf sqrt(C_inf).

    Multiplied by the square root of the initial worst-pair fluctuation it
    bounds the total drift the convolutional forcing can impose on the
    spectral gap of the velocity gradient.
    """
    _require(lam > 0.0 and c_inf >= 0.0, "lambda > 0, C_inf >= 0")
    return 64.0 / lam * m0 * dphi_inf * math.sqrt(c_inf)


def general_gap_budget(
    A: float, m0: float, phi_minus: float, dphi_inf: float, u_max: float
) -> tuple[float, float, Optional[float], Optional[float]]:
    """Gap budget (C_max, C_A, c2, etaS_upper) of the general-potential threshold.

    C_max = 8 dphi_inf m0 u_max + 2A bounds the gap forcing and must stay
    below C_A = (m0 phi_minus)^2/2 - 2A; then c2 and etaS_upper are
    sqrt(C_A -+ sqrt(C_A^2 - C_max^2)).  Otherwise both are None.
    """
    c_max = 8.0 * dphi_inf * m0 * u_max + 2.0 * A
    c_a = (m0 * phi_minus) ** 2 / 2.0 - 2.0 * A
    if not c_a > c_max:
        return c_max, c_a, None, None
    disc = math.sqrt(c_a * c_a - c_max * c_max)
    return c_max, c_a, math.sqrt(c_a - disc), math.sqrt(c_a + disc)


def _require(cond: bool, what: str):
    if not cond:
        raise ValueError(f"constants require {what}")


@dataclass
class ConstantsReport:
    """Every closed-form constant that applies to a parameter set.

    Fields that a given parameter set cannot support are None, with the
    reason recorded in ``notes``.  ``as_dict`` pairs each value with the
    formula it was computed from.
    """

    lam: Optional[float] = None
    lam1: Optional[float] = None
    c_inf: Optional[float] = None
    c_inf_via_f1: Optional[float] = None
    c_inf_conservative: Optional[float] = None
    mu1: Optional[float] = None
    mu2: Optional[float] = None
    mu3: Optional[float] = None
    beta_cross: Optional[float] = None
    r0: Optional[float] = None
    phi_minus_from_r0: Optional[float] = None
    c: Optional[float] = None
    c_0: Optional[float] = None
    c_f: Optional[float] = None
    c_plus: Optional[float] = None
    c_star: Optional[float] = None
    c1: Optional[float] = None
    c_max: Optional[float] = None
    c_a: Optional[float] = None
    c2: Optional[float] = None
    notes: list = field(default_factory=list)

    def as_dict(self) -> dict:
        out = {}
        for f in fields(self):
            if f.name == "notes":
                continue
            entry = {"value": getattr(self, f.name)}
            if f.name in _TAGS:
                entry["formula"] = _TAGS[f.name]
            out[f.name] = entry
        out["notes"] = list(self.notes)
        return out

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)


_TAGS = {
    "lam": "0.5*min(m0*phi_minus/(m0^2*phi_plus^2/a + 3/2), sqrt(a)/2)",
    "lam1": "0.25*min(m0*phi_minus/(1 + (m0^2*phi_plus^2+1)/a + 1/4), sqrt(a)/2)",
    "c_inf": "4*(1 + phi_plus^2*m0^2*(2/(m0*phi_minus*lam) + 4/a))",
    "c_inf_via_f1": "4*(1 + 4*m0^2*(1/(2*m0*phi_minus) + 2*lam1/a)*phi_plus^2/lam)",
    "c_inf_conservative": "max(c_inf, c_inf_via_f1)",
    "mu1": "y - sqrt(y^2 - y + 1), y = a*K^2/A^2",
    "mu2": "(p + sqrt(p^2 - 4*a*q))/(2a), p = a^2*K/A^2 + K/2, q = a*K^2/(2A^2) - 1/4",
    "mu3": "(p - sqrt(p^2 - 4*a*q))/(2a)",
    "beta_cross": "2*a*K/A^2",
    "r0": "closed-form scale with int_{P0}^{R0} phi(sqrt(8r/a)) dr = phi_plus*E0/(4*m0)",
    "phi_minus_from_r0": "phi(sqrt(8*R0/a))",
    "c": "min(m0*phi_minus/(A + 2*(A + m0^2*phi_plus^2)), sqrt(a/(8*A^2)))",
    "c_0": "(2/(m0*phi_minus) + 4*c)*phi_plus^2*m0*E0",
    "c_f": "2*A*c_0/(a^2*c)",
    "c_plus": "2*sqrt(A)*(1 + 1/sqrt(a))",
    "c_star": "(64/lam)*m0*dphi_inf*sqrt(c_inf)",
    "c1": "sqrt(m0^2*phi_minus^2 - (etaS0_max + c_star*sqrt(deltaEinf0))^2 - 4a)",
    "c_max": "8*dphi_inf*m0*u_max + 2*A",
    "c_a": "m0^2*phi_minus^2/2 - 2*A",
    "c2": "sqrt(c_a - sqrt(c_a^2 - c_max^2))",
}


def constants_report(
    a: float,
    A: float,
    m0: float,
    phi_minus: Optional[float],
    phi_plus: float,
    dphi_inf: float,
    K: Optional[float] = None,
    energy0: Optional[float] = None,
    r0: Optional[float] = None,
    kernel: Optional[Kernel] = None,
    u_max: Optional[float] = None,
) -> ConstantsReport:
    """Assemble every constant the inputs support; inapplicable ones become notes.

    ``phi_minus`` may be None when no a-priori kernel floor is known, in
    which case the floor-dependent constants are skipped.  ``K`` is the
    constant-kernel coupling m0*phi (for the pair-functional rates).
    ``r0`` is the support bound R0, which the paper gives only for a
    quadratic potential with centered data (``runner.analyze`` decides
    that); with it and ``kernel`` the report fills R0 and
    phi(sqrt(8 R0/a)), else both stay None.  ``u_max`` enables the
    general-potential budget constants.
    """
    rep = ConstantsReport()
    if r0 is not None and kernel is not None:
        rep.r0 = r0
        rep.phi_minus_from_r0 = phi_min_from_support(kernel, a, r0)
    if phi_minus is None:
        rep.notes.append("no a-priori kernel floor: floor-dependent constants skipped")
    if a > 0.0 and phi_minus is not None:
        rep.lam = decay_rate(a, m0, phi_minus, phi_plus)
        rep.lam1 = decay_rate_f1(a, m0, phi_minus, phi_plus)
        rep.c_inf = linf_constant(a, m0, phi_minus, phi_plus)
        rep.c_inf_via_f1 = linf_constant_via_f1(a, m0, phi_minus, phi_plus)
        rep.c_inf_conservative = max(rep.c_inf, rep.c_inf_via_f1)
        rep.c_star = gap_forcing_constant(rep.lam, m0, dphi_inf, rep.c_inf)
    elif a <= 0.0:
        rep.notes.append("a <= 0: decay-rate constants not applicable")
    if K is not None and a > 0.0:
        rep.beta_cross = pair_beta(a, A, K)
        if K > A / math.sqrt(a):
            rep.mu1, rep.mu2, rep.mu3 = pair_rates(a, A, K)
        else:
            rep.notes.append(
                f"stability condition fails (K = {K} <= A/sqrt(a) = {A / math.sqrt(a):.6g}):"
                " pair-functional rates not applicable"
            )
    if a > 0.0 and A >= a and phi_minus is not None:
        rep.c, rep.c_0, rep.c_f, rep.c_plus = reduction_constants(
            a, A, m0, phi_minus, phi_plus, energy0 if energy0 is not None else 0.0
        )
        if energy0 is None:
            rep.notes.append("E0 missing: C0 and C_F evaluated with E0 = 0")
    if u_max is not None and a > 0.0 and A >= a and phi_minus is not None:
        rep.c_max, rep.c_a, rep.c2, _ = general_gap_budget(A, m0, phi_minus, dphi_inf, u_max)
        if rep.c2 is None:
            rep.notes.append("C_max >= C_A: general-potential gap budget not applicable")
    return rep
