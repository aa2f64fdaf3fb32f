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
* F_const_max: worst-pair value of the pair functional
  K/2 |dx|^2 + dx.du + beta/2 |du|^2 used for constant couplings.
* V, F1_max: mean and per-agent energy with a position-velocity cross
  term, whose decay gives the L2 and worst-pair bounds (quadratic case).

A frame's deltaE_L2, deltaE_Linf, D and F_const_max come from one
``pair_scan`` over the upper-triangle row blocks of ``dynamics.block_views``,
in the pool of buffers that the right-hand sides' pair passes use.  Each
block takes every x and u difference once, as a GEMM of
``dynamics.differences``; ``fluctuations``, ``particle_energy_support`` and
``pair_functional_f`` wrap the scan.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .dynamics import Ensemble, add_block, block_views, differences, even_first, means
from .potentials import Potential, value_at

__all__ = [
    "DiagnosticsFrame",
    "frame_columns",
    "RateFit",
    "energy",
    "pair_scan",
    "fluctuations",
    "particle_energy_max",
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


def pair_scan(ens: Ensemble, a: float, coupling: Optional[float] = None, beta: Optional[float] = None):
    """(deltaE_L2, deltaE_Linf, D, F_const_max) of a state from one pass over its pairs i <= j.

    With dx = x_i - x_j, du = u_i - u_j and pair = |du|^2 + a |dx|^2:
    deltaE_L2 = sum_ij m_i m_j pair, deltaE_Linf = max pair, D = max |dx| and,
    given K = ``coupling``, F_const_max = max K/2 |dx|^2 + dx.du + beta/2 |du|^2
    (else NaN).  In each of ``block_views``' row blocks, every coordinate's dx
    and du is one GEMM of ``differences``, summed as squares into sx and su
    (and as products into xu) in ``even_first`` order, so the maxima are bitwise
    those of the dense N x N x d forms; deltaE_L2 is m @ (pair @ m) from ``add_block``.
    """
    if a < 0.0:
        raise ValueError(f"fluctuation weight a must be nonnegative, got {a}")
    cross = coupling is not None
    x, u, m = ens.x, ens.u, ens.m
    diff_x, diff_u = differences(x), differences(u)
    sums = np.zeros(len(m))
    linf = d_sq = f_max = -np.inf
    for lo, hi, (sx, su, xu, dx, du) in block_views(len(m), m, 5):
        for k in even_first(x.shape[1]):
            xk, uk = diff_x(k, lo, hi, dx if k else sx), diff_u(k, lo, hi, du if k else su)
            if cross:
                if k:
                    xu += xk * uk  # all five views are live here, so the product takes a temporary
                else:
                    np.multiply(xk, uk, out=xu)
            np.multiply(xk, xk, out=xk)
            np.multiply(uk, uk, out=uk)
            if k:
                sx += xk
                su += uk
        d_sq = max(d_sq, sx.max())
        pair = np.add(np.multiply(sx, a, out=du), su, out=du) if a != 0.0 else su
        linf = max(linf, pair.max())
        add_block(sums, pair, m, lo, hi)
        if cross:
            np.add(np.multiply(sx, 0.5 * coupling, out=dx), xu, out=dx)
            f_max = max(f_max, np.add(dx, np.multiply(su, 0.5 * beta, out=su), out=dx).max())
    return float(m @ sums), float(linf), float(math.sqrt(d_sq)), float(f_max) if cross else math.nan


def fluctuations(ens: Ensemble, a: float) -> tuple[float, float]:
    """Mass-weighted and worst-pair fluctuation metrics (deltaE_L2, deltaE_Linf) of ``pair_scan``."""
    return pair_scan(ens, a)[:2]


def particle_energy_max(ens: Ensemble, potential: Potential) -> float:
    """Maximal particle energy P = max_i |u_i|^2/2 + U(x_i)."""
    return float((0.5 * np.einsum("nd,nd->n", ens.u, ens.u) + value_at(potential, ens.x)).max())


def particle_energy_support(ens: Ensemble, potential: Potential) -> tuple[float, float]:
    """Maximal particle energy P and support diameter D (D from ``pair_scan``)."""
    return particle_energy_max(ens, potential), pair_scan(ens, 0.0)[2]


def _cross_energy(ens: Ensemble, a: float, lam: float) -> np.ndarray:
    """Per-agent |u_i|^2/2 + a |x_i|^2/2 + 2 lam u_i . x_i."""
    vals = 0.5 * np.einsum("nd,nd->n", ens.u, ens.u)
    vals += 0.5 * a * np.einsum("nd,nd->n", ens.x, ens.x)
    vals += 2.0 * lam * np.einsum("nd,nd->n", ens.u, ens.x)
    return vals


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
    return float(ens.m @ _cross_energy(ens, a, lam))


def perturbed_particle_energy_max(ens: Ensemble, a: float, lam1: float) -> float:
    """Largest per-agent value of |u|^2/2 + a |x|^2/2 + 2 lam1 u . x.

    The per-agent counterpart of lyapunov_v; its decay controls the
    worst-pair fluctuation.
    """
    return float(_cross_energy(ens, a, lam1).max())


def pair_functional_f(ens: Ensemble, coupling: float, beta: float) -> float:
    """Worst-pair value of K/2 |dx|^2 + dx . du + beta/2 |du|^2 (``pair_scan``'s F_const_max).

    ``coupling`` is K = m0 * phi for a constant kernel and ``beta`` its
    velocity weight.  The form is positive definite precisely when
    K * beta > 1, in which case the result is nonnegative for any state.
    """
    return pair_scan(ens, 0.0, coupling, beta)[3]


@dataclass(frozen=True)
class RateFit:
    """Least-squares decay fit on log-transformed samples."""

    rate: float
    intercept: float
    residual_rms: float
    window: tuple[float, float]


def fit_rate(times, values, window: Optional[tuple[float, float]] = None) -> RateFit:
    """Fit an exponential decay rate to positive samples of a time series.

    Regresses log v on t, so a series C e^(-r t) yields rate = r.  The
    window defaults to the full series; it must contain at least 5
    samples, all positive.
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
    log_v = np.log(v_w)
    design = np.column_stack([t_w, np.ones_like(t_w)])
    coef, *_ = np.linalg.lstsq(design, log_v, rcond=None)
    resid = log_v - design @ coef
    rms = float(np.sqrt(np.mean(resid * resid)))
    window = (float(lo), float(hi))
    return RateFit(rate=float(-coef[0]), intercept=float(coef[1]), residual_rms=rms, window=window)


def _column(csv: str, **default):
    """A frame field written as the CSV column ``csv``; x_c and u_c expand to ``csv_0, csv_1, ...``."""
    return field(metadata={"csv": csv}, **default)


@dataclass
class DiagnosticsFrame:
    """One output-time snapshot of every monitored functional; each field names its CSV column.

    Fields that a run mode does not produce are NaN: min_e/max_e and the
    density range come from the 1D characteristic solver, the spectral
    columns from the 2D one, V and F1_max need quadratic confinement and a
    recentered state, F_const_max a constant kernel with convex potential.
    """

    t: float = _column("t")
    total_energy: float = _column("E")
    kinetic_energy: float = _column("E_k")
    delta_e_l2: float = _column("deltaE_L2")
    delta_e_linf: float = _column("deltaE_Linf")
    particle_energy: float = _column("P")
    diameter: float = _column("D")
    lyapunov: float = _column("V")
    f1_max: float = _column("F1_max")
    f_const_max: float = _column("F_const_max")
    x_c: tuple = _column("xc")
    u_c: tuple = _column("uc")
    min_e: float = _column("min_e", default=math.nan)
    max_e: float = _column("max_e", default=math.nan)
    min_rho: float = _column("min_rho", default=math.nan)
    max_rho: float = _column("max_rho", default=math.nan)
    max_abs_eta_s: float = _column("max_abs_etaS", default=math.nan)
    max_abs_omega: float = _column("max_abs_omega", default=math.nan)
    max_tr_grad: float = _column("max_trM", default=math.nan)


def frame_columns(frames) -> dict:
    """Field name -> the frames' values of that field as one array, (F, d) for x_c and u_c."""
    names = [f.name for f in fields(DiagnosticsFrame)]
    return {name: np.asarray([getattr(f, name) for f in frames], dtype=float) for name in names}
