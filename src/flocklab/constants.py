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
    "pair_stable",
    "pair_rates",
    "pair_beta",
    "support_scale",
    "phi_min_from_support",
    "reduction_constants",
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
    """Prefactor C_inf of the worst-pair fluctuation bound, the larger of its two assemblies.

    The statement form reads C_inf = 4 (1 + phi_plus^2 m0^2 (2/(m0 phi_minus lambda) + 4/a)); the
    assembly through the perturbed energy, with the source constant
    C0 = (1/(2 m0 phi_minus) + 2 lambda_1 / a) phi_plus^2, reads C_inf = 4 (1 + 4 C0 m0^2 / lambda).
    Neither dominates the other for all inputs, so the bound takes the larger.
    """
    lam = decay_rate(a, m0, phi_minus, phi_plus)
    if not m0 * phi_minus * lam > 0.0:  # the product underflows: C_inf is past the float range
        return math.inf
    lam1 = decay_rate_f1(a, m0, phi_minus, phi_plus)
    c0 = (1.0 / (2.0 * m0 * phi_minus) + 2.0 * lam1 / a) * phi_plus**2
    return max(
        4.0 * (1.0 + phi_plus**2 * m0**2 * (2.0 / (m0 * phi_minus * lam) + 4.0 / a)),
        4.0 * (1.0 + 4.0 * c0 * m0 * m0 / lam),
    )


def pair_beta(a: float, A: float, K: float) -> float:
    """Velocity weight beta = 2 a K / A^2 of the pair functional."""
    _require(a > 0.0 and A > 0.0 and K > 0.0, "a, A, K > 0")
    return 2.0 * a * K / (A * A)


def pair_stable(a: float, A: float, K: float) -> bool:
    """The pair functional's stability condition K > A / sqrt(a), False if a <= 0.

    The one place it is decided: ``pair_rates``, ``constants_report`` and the
    runner's record of which convex flocking statements apply all ask it.
    """
    return a > 0.0 and K > A / math.sqrt(a)


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
    if not pair_stable(a, A, K):
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
        try:
            if beta == 1.0:
                grown = base * math.exp(2.0 * phi_plus * energy0 / (a * c0 * m0))
            else:
                grown = (
                    base ** (1.0 - beta) + 2.0 * (1.0 - beta) * phi_plus * energy0 / (a * c0 * m0)
                ) ** (1.0 / (1.0 - beta))
        except OverflowError:  # R0 is past the float range
            return math.inf
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


def _formula(text: str):
    """A report entry, None until computed, whose defining formula ``as_dict`` prints beside it."""
    return field(default=None, metadata={"formula": text})


@dataclass
class ConstantsReport:
    """Every closed-form constant that applies to a parameter set.

    Fields that a given parameter set cannot support are None, with the
    reason recorded in ``notes``.  Each field declares the formula it is
    computed from, and ``as_dict`` pairs the value with it.  A run's
    summary, its classifier and ``flocklab constants`` all read the one
    report that ``runner.analyze`` builds.
    """

    lam: Optional[float] = _formula("0.5*min(m0*phi_minus/(m0^2*phi_plus^2/a + 3/2), sqrt(a)/2)")
    lam1: Optional[float] = _formula("0.25*min(m0*phi_minus/(1 + (m0^2*phi_plus^2+1)/a + 1/4), sqrt(a)/2)")
    c_inf: Optional[float] = _formula("max(4*(1 + phi_plus^2*m0^2*(2/(m0*phi_minus*lam) + 4/a)),"
                                      " 4*(1 + 4*m0^2*(1/(2*m0*phi_minus) + 2*lam1/a)*phi_plus^2/lam))")
    mu1: Optional[float] = _formula("y - sqrt(y^2 - y + 1), y = a*K^2/A^2")
    mu2: Optional[float] = _formula("(p + sqrt(p^2 - 4*a*q))/(2a),"
                                    " p = a^2*K/A^2 + K/2, q = a*K^2/(2A^2) - 1/4")
    mu3: Optional[float] = _formula("(p - sqrt(p^2 - 4*a*q))/(2a)")
    beta_cross: Optional[float] = _formula("2*a*K/A^2")
    r0: Optional[float] = _formula("closed-form scale with"
                                   " int_{P0}^{R0} phi(sqrt(8r/a)) dr = phi_plus*E0/(4*m0)")
    phi_minus_from_r0: Optional[float] = _formula("phi(sqrt(8*R0/a))")
    c: Optional[float] = _formula("min(m0*phi_minus/(A + 2*(A + m0^2*phi_plus^2)), sqrt(a/(8*A^2)))")
    c_0: Optional[float] = _formula("(2/(m0*phi_minus) + 4*c)*phi_plus^2*m0*E0")
    c_f: Optional[float] = _formula("2*A*c_0/(a^2*c)")
    c_plus: Optional[float] = _formula("2*sqrt(A)*(1 + 1/sqrt(a))")
    u_max: Optional[float] = _formula("max(c_plus*max0, 2*(1 + 1/sqrt(a))*sqrt(c_f)),"
                                      " max0 = initial max(|u| + |x|)")
    c_star: Optional[float] = _formula("(64/lam)*m0*dphi_inf*sqrt(c_inf)")
    c_max: Optional[float] = _formula("8*dphi_inf*m0*u_max + 2*A")
    c_a: Optional[float] = _formula("m0^2*phi_minus^2/2 - 2*A")
    c2: Optional[float] = _formula("sqrt(c_a - sqrt(c_a^2 - c_max^2))")
    notes: list = field(default_factory=list)

    def as_dict(self) -> dict:
        out = {
            f.name: {"value": getattr(self, f.name), "formula": f.metadata["formula"]}
            for f in fields(self) if f.name != "notes"
        }
        out["notes"] = list(self.notes)
        return out

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)


def constants_report(
    a: float,
    A: float,
    m0: float,
    phi_minus: Optional[float],
    phi_plus: float,
    dphi_inf: float,
    *,
    energy0: float,
    kernel: Kernel,
    max0: float,
    K: Optional[float] = None,
    r0: Optional[float] = None,
) -> ConstantsReport:
    """Assemble every constant the inputs support; inapplicable ones become notes.

    ``phi_minus`` may be None when no a-priori kernel floor is known, in
    which case the floor-dependent constants are skipped.  ``energy0`` is
    the initial energy E0 and ``max0`` the initial max(|u| + |x|); with
    C_F and C_plus it gives the a-priori velocity bound u_max, and u_max
    the general-potential budget C_max, C_A, c2.  ``K`` is the
    constant-kernel coupling m0*phi (for the pair-functional rates).
    ``r0`` is the support bound R0, which the paper gives only for a
    quadratic potential with centered data (``runner.analyze`` decides
    that); with it the report fills R0 and phi(sqrt(8 R0/a)) of
    ``kernel``, else both stay None.
    """
    rep = ConstantsReport()
    if r0 is not None:
        rep.r0 = r0
        rep.phi_minus_from_r0 = phi_min_from_support(kernel, a, r0)
    if phi_minus is None:
        rep.notes.append("no a-priori kernel floor: floor-dependent constants skipped")
    if a > 0.0 and phi_minus is not None:
        rep.lam = decay_rate(a, m0, phi_minus, phi_plus)
        rep.lam1 = decay_rate_f1(a, m0, phi_minus, phi_plus)
        rep.c_inf = linf_constant(a, m0, phi_minus, phi_plus)
        rep.c_star = gap_forcing_constant(rep.lam, m0, dphi_inf, rep.c_inf)
    elif a <= 0.0:
        rep.notes.append("a <= 0: decay-rate constants not applicable")
    if K is not None and a > 0.0:
        rep.beta_cross = pair_beta(a, A, K)
        if pair_stable(a, A, K):
            rep.mu1, rep.mu2, rep.mu3 = pair_rates(a, A, K)
        else:
            rep.notes.append(
                f"stability condition fails (K = {K} <= A/sqrt(a) = {A / math.sqrt(a):.6g}):"
                " pair-functional rates not applicable"
            )
    if a > 0.0 and A >= a and phi_minus is not None:
        rep.c, rep.c_0, rep.c_f, rep.c_plus = reduction_constants(a, A, m0, phi_minus, phi_plus, energy0)
        rep.u_max = max(rep.c_plus * max0, 2.0 * (1.0 + 1.0 / math.sqrt(a)) * math.sqrt(rep.c_f))
        rep.c_max, rep.c_a, rep.c2, _ = general_gap_budget(A, m0, phi_minus, dphi_inf, rep.u_max)
        if rep.c2 is None:
            rep.notes.append("C_max >= C_A: general-potential gap budget not applicable")
    return rep
