"""Scalar functionals of the agent state and empirical decay-rate fits.

The functionals monitored per output frame:

* E, E_k: total and kinetic energy, E = sum_i m_i (|u_i|^2/2 + U(x_i)).
  Along the exact flow dE/dt equals minus half the mass-weighted pairwise
  dissipation sum m_i m_j phi_ij |u_i - u_j|^2.
* deltaE_L2, deltaE_Linf: the flocking metrics; the mass-weighted double
  sum and the worst pair of |du|^2 + a |dx|^2, with a the convexity floor
  of the potential.  On a zero-mean state deltaE_L2 = 4 m0 E for the
  quadratic potential with the same a.
* P, D: maximal particle energy and support diameter.  With quadratic
  confinement (a/8) D^2 <= P and P stays below the closed-form scale R0.
* V: mean energy with a position-velocity cross term, the decaying
  functional behind the exponential L2 bound (quadratic case).
* F1_max: the per-agent analog of V whose decay yields the worst-pair
  bound.
* F_const_max: worst-pair value of the pair functional
  K/2 |dx|^2 + dx.du + beta/2 |du|^2 used for constant couplings.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import Ensemble, means, pair_product
from .potentials import Potential, value_at

__all__ = [
    "DiagnosticsFrame",
    "RateFit",
    "energy",
    "fluctuations",
    "particle_energy_support",
    "lyapunov_v",
    "perturbed_particle_energy_max",
    "pair_functional_f",
    "fit_rate",
]


def energy(ens: Ensemble, potential: Potential) -> tuple[float, float]:
    """Total and kinetic energy (E, E_k)."""
    kinetic = 0.5 * float(ens.m @ np.einsum("nd,nd->n", ens.u, ens.u))
    total = kinetic + float(ens.m @ value_at(potential, ens.x))
    return total, kinetic


def _pairwise_sq_norms(z: np.ndarray) -> np.ndarray:
    diff = z[:, None, :] - z[None, :, :]
    return np.einsum("ijd,ijd->ij", diff, diff)


def fluctuations(ens: Ensemble, a: float) -> tuple[float, float]:
    """Mass-weighted and worst-pair fluctuation metrics (deltaE_L2, deltaE_Linf).

    deltaE_L2  = sum_ij m_i m_j (|u_i - u_j|^2 + a |x_i - x_j|^2)
    deltaE_Linf = max_ij (|u_i - u_j|^2 + a |x_i - x_j|^2)

    ``a`` is the convexity floor of the potential (quadratic coefficient
    in the quadratic case); pass 0 for an unconfined run.
    """
    if a < 0.0:
        raise ValueError(f"fluctuation weight a must be nonnegative, got {a}")
    pair = _pairwise_sq_norms(ens.u)
    if a != 0.0:
        pair = pair + a * _pairwise_sq_norms(ens.x)
    weighted = float(pair_product(pair.T, ens.m) @ ens.m)  # m @ pair @ m
    return weighted, float(pair.max())


def particle_energy_support(ens: Ensemble, potential: Potential) -> tuple[float, float]:
    """Maximal particle energy P and support diameter D (exact pairwise scan)."""
    per_particle = 0.5 * np.einsum("nd,nd->n", ens.u, ens.u) + value_at(potential, ens.x)
    d_sq = _pairwise_sq_norms(ens.x).max()
    return float(per_particle.max()), float(math.sqrt(d_sq))


def lyapunov_v(ens: Ensemble, a: float, lam: float) -> float:
    """Decaying mean functional sum_i m_i (|u_i|^2/2 + a |x_i|^2/2 + 2 lam u_i . x_i).

    Meaningful on a recentered state with quadratic confinement; warns if
    the means are not zero to round-off.
    """
    c = means(ens)
    drift = max(np.abs(c.x_c).max(), np.abs(c.u_c).max())
    if drift > 1e-8:
        warnings.warn(
            f"lyapunov_v expects a recentered state; means have norm {drift:.3g}",
            stacklevel=2,
        )
    quad = 0.5 * np.einsum("nd,nd->n", ens.u, ens.u)
    quad += 0.5 * a * np.einsum("nd,nd->n", ens.x, ens.x)
    quad += 2.0 * lam * np.einsum("nd,nd->n", ens.u, ens.x)
    return float(ens.m @ quad)


def perturbed_particle_energy_max(ens: Ensemble, a: float, lam1: float) -> float:
    """Largest per-agent value of |u|^2/2 + a |x|^2/2 + 2 lam1 u . x.

    The per-agent counterpart of lyapunov_v; its decay controls the
    worst-pair fluctuation.
    """
    vals = 0.5 * np.einsum("nd,nd->n", ens.u, ens.u)
    vals += 0.5 * a * np.einsum("nd,nd->n", ens.x, ens.x)
    vals += 2.0 * lam1 * np.einsum("nd,nd->n", ens.u, ens.x)
    return float(vals.max())


def pair_functional_f(ens: Ensemble, coupling: float, beta: float) -> float:
    """Worst-pair value of K/2 |dx|^2 + dx . du + beta/2 |du|^2.

    ``coupling`` is K = m0 * phi for a constant kernel and ``beta`` its
    velocity weight.  The form is positive definite precisely when
    K * beta > 1, in which case the result is nonnegative for any state.
    """
    dx = ens.x[:, None, :] - ens.x[None, :, :]
    du = ens.u[:, None, :] - ens.u[None, :, :]
    vals = 0.5 * coupling * np.einsum("ijd,ijd->ij", dx, dx)
    vals += np.einsum("ijd,ijd->ij", dx, du)
    vals += 0.5 * beta * np.einsum("ijd,ijd->ij", du, du)
    return float(vals.max())


@dataclass(frozen=True)
class RateFit:
    """Least-squares decay fit on log-transformed samples."""

    rate: float
    intercept: float
    residual_rms: float
    window: tuple[float, float]
    mode: str = "exponential"


def fit_rate(times, values, window: Optional[tuple[float, float]] = None, mode: str = "exponential") -> RateFit:
    """Fit a decay rate to positive samples of a time series.

    mode "exponential" regresses log v on t, so a series C e^(-r t) yields
    rate = r.  mode "algebraic" regresses log v on log(1 + t), so
    C (1 + t)^(-p) yields rate = p.  The window defaults to the full
    series; it must contain at least 5 samples, all positive.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape or times.ndim != 1:
        raise ValueError("times and values must be equal-length 1D arrays")
    if window is None:
        window = (float(times.min()), float(times.max())) if times.size else (0.0, 0.0)
    lo, hi = window
    mask = (times >= lo) & (times <= hi)
    t_w, v_w = times[mask], values[mask]
    if t_w.size < 5:
        raise ValueError(f"need at least 5 samples in window [{lo}, {hi}], got {t_w.size}")
    if np.any(v_w <= 0.0):
        raise ValueError("rate fit window contains nonpositive samples")
    if mode == "exponential":
        abscissa = t_w
    elif mode == "algebraic":
        abscissa = np.log1p(t_w)
    else:
        raise ValueError(f"unknown fit mode {mode!r}")
    log_v = np.log(v_w)
    design = np.column_stack([abscissa, np.ones_like(abscissa)])
    coef, *_ = np.linalg.lstsq(design, log_v, rcond=None)
    resid = log_v - design @ coef
    rms = float(np.sqrt(np.mean(resid * resid)))
    return RateFit(rate=float(-coef[0]), intercept=float(coef[1]), residual_rms=rms,
                   window=(float(lo), float(hi)), mode=mode)


@dataclass
class DiagnosticsFrame:
    """One output-time snapshot of every monitored functional.

    Fields that a run mode does not produce are NaN: min_e/max_e and the
    density range come from the 1D characteristic solver, the spectral
    columns from the 2D one, V and F1_max need quadratic confinement and a
    recentered state, F_const_max a constant kernel with convex potential.
    """

    t: float
    total_energy: float
    kinetic_energy: float
    delta_e_l2: float
    delta_e_linf: float
    particle_energy: float
    diameter: float
    lyapunov: float
    f1_max: float
    f_const_max: float
    x_c: tuple
    u_c: tuple
    min_e: float = math.nan
    max_e: float = math.nan
    min_rho: float = math.nan
    max_rho: float = math.nan
    max_abs_eta_s: float = math.nan
    max_abs_omega: float = math.nan
    max_tr_grad: float = math.nan
