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
in the pool of buffers that the right-hand sides' pair passes use.  Each is
a quadratic form of p_i - p_j, p = (x, u), expanded about one agent, so each
of its blocks is one GEMM, within the round-off budget ``pair_scan`` states;
``fluctuations``, ``particle_energy_support`` and ``pair_functional_f`` wrap the scan.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Optional

import numpy as np

from .dynamics import Ensemble, add_block, block_views, means
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


# pair_scan's factors: one flat buffer per process, grown to the largest size seen
_scan_factors = np.empty(0)
_SCAN_TAIL = -0.5 * np.eye(3)[:, :, None]  # the right factors' last rows, form by form


@lru_cache(maxsize=16)
def _scan_forms(d: int, a: float, coupling: Optional[float], beta: Optional[float]) -> np.ndarray:
    """-2 M for the matrices M on p = (x, u) of |du|^2 + a |dx|^2, |dx|^2 and F (zero without a coupling)."""
    f = [[0.0, 0.0], [0.0, 0.0]] if coupling is None else [[-coupling, -1.0], [-1.0, -beta]]
    forms = np.kron([[[-2.0 * a, 0.0], [0.0, -2.0]], [[-2.0, 0.0], [0.0, 0.0]], f], np.eye(d))
    forms.flags.writeable = False  # the cache hands this one array to every call
    return forms


def pair_scan(ens: Ensemble, a: float, coupling: Optional[float] = None, beta: Optional[float] = None):
    """(deltaE_L2, deltaE_Linf, D, F_const_max) of a state from one pass over its pairs i <= j.

    With dx = x_i - x_j, du = u_i - u_j and pair = |du|^2 + a |dx|^2:
    deltaE_L2 = sum_ij m_i m_j pair, deltaE_Linf = max pair, D = max |dx| and,
    given K = ``coupling``, F_const_max = max K/2 |dx|^2 + dx.du + beta/2 |du|^2
    (else NaN).  Each form q, of matrix M on p = (x, u), is expanded about the heaviest agent k:
    with p~ = p - p_k and s = -2 q(p~), q(p_i - p_j) = q(p~_i) + q(p~_j) - 2 p~_i.M p~_j, so a
    block is the GEMM [1, p~_i, s_i] @ [-s_j/2; -2 M p~_j; -1/2] of rank <= 2d + 4 (in 1D, D is
    max x - min x).  p~ is exact where p_i is within a factor of two of p_k, so coincident agents
    give exact zeros; row k is q(p~_j) itself, so each maximum is at least max_j q(p~_j) >= 0.
    An entry's terms add up to at most 2 (q(p~_i) + q(p~_j)) in size, kappa times that for F
    (kappa the condition number of its M, K beta > 1), so each maximum is within about
    4 (2d + 4) kappa eps, relative (an indefinite F: absolute, times max_j (K + 1)|x~_j|^2 +
    (1 + beta)|u~_j|^2), and deltaE_L2 within O((2d + 4) m0 / m_k + N) eps, relative, as its
    row and column k add to 2 m_k sum_j m_j q(p~_j).
    """
    if a < 0.0:
        raise ValueError(f"fluctuation weight a must be nonnegative, got {a}")
    global _scan_factors
    (n, d), m = ens.x.shape, ens.m
    size = (2 * d + 4) * n  # left: [1, x~, u~, s of each form]
    if _scan_factors.size < 4 * size:
        _scan_factors = np.empty(4 * size)
    left, right = _scan_factors[:size].reshape(n, -1), _scan_factors[size : 4 * size].reshape(3, -1, n)
    k = int(m.argmax())  # the heaviest agent: the mass sum's budget grows with m0 / m_k
    p, xu = left[:, 1 : 2 * d + 1], ens.flat[: 2 * n * d].reshape(2, n, d)
    np.subtract(xu, xu[:, k : k + 1], out=p.reshape(n, 2, d).transpose(1, 0, 2))
    left[:, 0] = 1.0
    right[:, 2 * d + 1 :] = _SCAN_TAIL
    r = np.matmul(_scan_forms(d, a, coupling, beta), p.T, out=right[:, 1 : 2 * d + 1])  # -2 M p~_j
    s = np.vecdot(p, r.transpose(0, 2, 1), out=left[:, 2 * d + 1 :].T)  # -2 q(p~_i)
    np.multiply(s, -0.5, out=right[:, 0])
    sums = np.zeros(n)
    linf = f_max = -np.inf
    d_sq = float(np.ptp(ens.x)) ** 2 if d == 1 else -np.inf  # the extremes are the widest pair, exactly

    def block_of(f):  # form f's block: the left factor's columns up to its s
        return np.matmul(left[lo:hi, : 2 * d + 2 + f], right[f, : 2 * d + 2 + f, lo:], out=block)

    for lo, hi, (block,) in block_views(n, right[0], 1):
        pair = block_of(0)
        linf = max(linf, pair.max())
        add_block(sums, pair, m, lo, hi)
        if d > 1:
            d_sq = max(d_sq, block_of(1).max())
        if coupling is not None:
            f_max = max(f_max, block_of(2).max())
    return float(m @ sums), float(linf), math.sqrt(d_sq), math.nan if coupling is None else float(f_max)


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
