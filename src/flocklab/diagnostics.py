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

A frame's E, E_k, P, V, F1_max and means come from one ``AgentPass``,
which takes each per-agent array (|u_i|^2, |x_i|^2, U(x_i), u_i . x_i) and
the mass sums once; ``energy``, ``particle_energy_max``, ``lyapunov_v`` and
``perturbed_particle_energy_max`` are each one pass, with the same bits.
A frame's deltaE_L2, deltaE_Linf, D and F_const_max come from one
``pair_scan``.  Each is a quadratic form of p_i - p_j, p = (x, u), expanded
about one agent: deltaE_L2 is the expansion's mass sums, in O(N), and each
worst-pair maximum comes from the pairs of candidate agents only, which the
triangle inequality of sqrt q (every scanned form is positive semidefinite)
leaves after a cut with the margin delta, one stacked GEMM per row block of
``dynamics.block_rows`` rows, with the bits of a blocked scan of every pair;
``pair_scan`` states the round-off budget and delta.  ``fluctuations``,
``particle_energy_support`` and ``pair_functional_f`` wrap the scan.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Optional

import numpy as np

from .dynamics import Ensemble, block_rows, means
from .potentials import Potential, _value_from_sq

__all__ = [
    "AgentPass",
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


class AgentPass:
    """One pass over a state's agents: every per-agent array of the O(N) frame functionals, each taken once.

    It holds |u_i|^2 (``uu``), |x_i|^2 (``xx``) and the ``means``, and, given a potential,
    ``total_energy``, ``kinetic_energy`` and ``particle_energy`` (E, E_k, P) from |u_i|^2 / 2 and U(x_i).
    ``lyapunov`` adds V and F1_max from u_i . x_i.  A frame, ``runner.analyze``'s t = 0 quantities and
    each public functional below read one pass; per-step tracking of these sums would call it too.
    """

    def __init__(self, ens: Ensemble, potential: Optional[Potential] = None):
        x, u, m = ens.x, ens.u, ens.m
        self.ens, self.means = ens, means(ens)
        self.uu, self.xx = np.einsum("nd,nd->n", u, u), np.einsum("nd,nd->n", x, x)
        self.half_uu = 0.5 * self.uu
        if potential is not None:
            values = _value_from_sq(potential, x, self.xx)
            self.kinetic_energy = 0.5 * float(m @ self.uu)
            self.total_energy = self.kinetic_energy + float(m @ values)
            self.particle_energy = float((self.half_uu + values).max())

    def cross_energies(self, a: float, *lams: float) -> list:
        """Per agent |u_i|^2/2 + a |x_i|^2/2 + 2 lam u_i . x_i, one array per lam."""
        base = self.half_uu + 0.5 * a * self.xx
        ux = np.einsum("nd,nd->n", self.ens.u, self.ens.x)
        return [base + 2.0 * lam * ux for lam in lams]

    def lyapunov(self, a: float, lam: float, *lam1: float) -> tuple:
        """V (``lyapunov_v``, with its drift warning), then F1_max for each lam1."""
        c = self.means
        drift = max(np.abs(c.x_c).max(), np.abs(c.u_c).max())
        if drift > 1e-8:
            warnings.warn(
                f"lyapunov_v expects a recentered state; means have norm {drift:.3g}",
                stacklevel=3,
            )
        v, *f1 = self.cross_energies(a, lam, *lam1)
        return float(self.ens.m @ v), *(float(f.max()) for f in f1)


def energy(ens: Ensemble, potential: Potential) -> tuple[float, float]:
    """Total and kinetic energy (E, E_k)."""
    sums = AgentPass(ens, potential)
    return sums.total_energy, sums.kinetic_energy


_DELTA = 64 * np.finfo(float).eps  # pair_scan's cut margin, per unit of (2d + 4) kappa


@lru_cache(maxsize=16)
def _scan_forms(d: int, a: float, coupling: Optional[float], beta: Optional[float]):
    """(-2 M, its rows flat, 1 - delta, scanned) of |du|^2 + a |dx|^2, |dx|^2 and F on p = (x, u).

    F's M is zero without a coupling.  ``scanned`` lists the forms whose maxima come from the
    candidate pass: not D in 1D, nor F without a coupling.  Checks ``pair_scan``'s arguments.
    """
    if not 0.0 <= a < math.inf:
        raise ValueError(f"fluctuation weight a must be finite and nonnegative, got {a}")
    if (coupling is None) != (beta is None):
        missing = "beta" if beta is None else "coupling"
        raise ValueError(f"coupling and beta are given both or neither; {missing} is missing")
    kappa, f = 1.0, [[0.0, 0.0], [0.0, 0.0]]
    if coupling is not None:
        for name, value in (("coupling", coupling), ("beta", beta)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        f = [[-coupling, -1.0], [-1.0, -beta]]
        top = (coupling + beta + math.hypot(coupling - beta, 2.0)) / 2.0  # F's eigenvalues: top, det / top
        det = coupling * beta - 1.0
        kappa = top * top / det if det > 0.0 else math.inf
    forms = np.kron([[[-2.0 * a, 0.0], [0.0, -2.0]], [[-2.0, 0.0], [0.0, 0.0]], f], np.eye(d))
    forms.flags.writeable = False  # the cache hands this one array to every call
    shrink = tuple(1.0 - min(1.0, _DELTA * (2 * d + 4) * c) for c in (1.0, 1.0, kappa))
    return forms, forms.reshape(3, -1), shrink, (0, *(1,) * (d > 1), *(2,) * (coupling is not None))


class _ScanLayout:
    """``pair_scan``'s O(N) buffers for N agents in dimension d, their constant parts written once.

    left = [1, p~_i, s_i of each form] (N, 2d + 4) and right = [-s_j / 2; -2 M p~_j; -1/2 e_f]
    (3, 2d + 4, N); v, vv and g hold p~ - c, its outer products and -2 q(p~ - c) for the radii,
    and kept each form's cut test.
    """

    def __init__(self, n: int, d: int):
        size = (2 * d + 4) * n
        self.flat = np.empty(4 * size + 2 * d * (2 * d + 1) * n + 3 * n)
        self.left, self.right = self.flat[:size].reshape(n, -1), self.flat[size : 4 * size].reshape(3, -1, n)
        self.left[:, 0] = 1.0
        self.right[:, 2 * d + 1 :] = -0.5 * np.eye(3)[:, :, None]
        self.p = self.left[:, 1 : 2 * d + 1]
        self.p3 = self.p.reshape(n, 2, d).transpose(1, 0, 2)  # [x~, u~], as the state's (2, N, d)
        self.r, self.s = self.right[:, 1 : 2 * d + 1], self.left[:, 2 * d + 1 :].T
        rest = self.flat[4 * size :]
        self.v = rest[: 2 * d * n].reshape(2 * d, n)
        self.vv = rest[2 * d * n : 2 * d * n * (2 * d + 1)].reshape(2 * d, 2 * d, n)
        self.g = rest[2 * d * n * (2 * d + 1) :].reshape(3, n)
        self.kept = np.empty((3, n), dtype=bool)
        self.rows = block_rows(self.right[0])  # the rows of the full scan's blocks


_scan_layout = lru_cache(maxsize=4)(_ScanLayout)  # runs are sequential: a few layouts suffice


def pair_scan(ens: Ensemble, a: float, coupling: Optional[float] = None, beta: Optional[float] = None):
    """(deltaE_L2, deltaE_Linf, D, F_const_max) of a state, in O(N) plus a pass over candidate pairs.

    With dx = x_i - x_j, du = u_i - u_j and pair = |du|^2 + a |dx|^2:
    deltaE_L2 = sum_ij m_i m_j pair, deltaE_Linf = max pair, D = max |dx| and, given K = ``coupling``,
    F_const_max = max K/2 |dx|^2 + dx.du + beta/2 |du|^2 (else NaN).  ``a`` is finite and >= 0;
    ``coupling`` and ``beta`` come both or neither, and finite (else ValueError).  A state whose
    deltaE_L2 or worst-pair bound L (below) overflows raises ValueError.

    Each form q, of matrix M on p = (x, u), is expanded about the heaviest agent k: with
    p~ = p - p_k and s = -2 q(p~), q(p_i - p_j) = q(p~_i) + q(p~_j) - 2 p~_i.M p~_j, the entry (i, j)
    of the GEMM [1, p~_i, s_i] @ [-s_j/2; -2 M p~_j; -1/2] of rank 2d + 4.  p~ is exact where p_i is
    within a factor of two of p_k, so coincident agents give exact zeros; row k is q(p~_j) itself,
    so each maximum is at least max_j q(p~_j) >= 0.  An entry's terms add up
    to at most 2 (q(p~_i) + q(p~_j)) in size, kappa times that for F (kappa the condition number of
    its M, K beta > 1), and q(p~_i) is a pair value, so each maximum is within about
    4 (2d + 4) kappa eps of the exact one, relative (an indefinite F: absolute, times
    max_j (K + 1)|x~_j|^2 + (1 + beta)|u~_j|^2).

    deltaE_L2 = 2 m0 sum_i m_i q(p~_i) - 2 q(sum_i m_i p~_i), from the s column and the mass sums of
    p~ in O(N), with no division, so it is exact where its terms are (dyadic states).  Both terms are
    at most (1 + m0 / m_k) deltaE_L2, so it is within about (N + 2d + 4)(1 + m0 / m_k) eps, relative.

    The maxima come from the pairs of candidate agents.  Every scanned form is positive
    semidefinite (F when K beta > 1), so sqrt q obeys the triangle inequality: with radii
    rho_i = sqrt q(p~_i - c) about the mass-weighted mean c (from the differences, not the
    expansion) and L the largest entry of the outermost agent's row, no pair of an agent with
    rho_i + rho_max < (1 - delta) sqrt L reaches L.  delta = 64 (2d + 4) kappa eps covers the
    round-off of L, of the radii and of every entry, with the maximum at most 4 rho_max^2 and at
    least rho_max^2; where delta would reach 1 (F indefinite, or kappa past 1 / (64 (2d + 4) eps)),
    every agent is kept.  The kept agents' pairs are scanned in row blocks of ``block_rows`` of the
    stacked factor, all forms in one product of two rows or more, written in turn to one
    (3, rows, cols) buffer per call, none N x N.  A mask keeps the entries that a scan of all
    N x N entries in blocks of ``block_rows(right[0])`` rows computes, in the same orientation,
    and GEMM entries do not depend on the product's shape (C-ordered factors, two rows or more),
    so each maximum has that scan's bits.
    """
    (n, d), m = ens.x.shape, ens.m
    forms, flat_forms, shrink, scanned = _scan_forms(d, a, coupling, beta)
    lay = _scan_layout(n, d)
    left, right, p = lay.left, lay.right, lay.p
    k = int(m.argmax())  # the heaviest agent: the mass sum's budget grows with m0 / m_k
    xu = ens.flat[: 2 * n * d].reshape(2, n, d)
    np.subtract(xu, xu[:, k : k + 1], out=lay.p3)
    r = np.matmul(forms, p.T, out=lay.r)  # -2 M p~_j
    s = np.vecdot(p, r.transpose(0, 2, 1), out=lay.s)  # s = -2 q(p~_i)
    if d == 1:
        # no scanned form reads D's s column, or x~ where a = 0 without F, but their signs reach the
        # entries as products with zeros: zeroed with their signs kept, they keep the bits and cannot
        # overflow into inf * 0
        np.copysign(0.0, s[1], out=s[1])
        if a == 0.0 and coupling is None:
            np.copysign(0.0, lay.p3[0], out=lay.p3[0])
    np.multiply(s, -0.5, out=right[:, 0])
    sums = np.matmul(m, left)  # [m0, P = sum_i m_i p~_i, sum_i m_i s_i]
    m0, *mp, s0 = sums[: 2 * d + 2].tolist()
    l2 = -m0 * s0 - 2.0 * (a * sum(v * v for v in mp[:d]) + sum(v * v for v in mp[d:])) + 0.0  # no -0.0

    v = np.subtract(p.T, sums[1 : 2 * d + 1, None] / m0, out=lay.v)  # p~ - c
    g = np.matmul(flat_forms, np.multiply(v[:, None], v[None], out=lay.vv).reshape(-1, n), out=lay.g)
    outer = g.argmin(axis=1)  # g = -2 rho_i^2, form by form: the outermost agents
    bound = np.matmul(left.take(outer, 0)[:, None], right).max(-1).ravel().tolist()  # L: o's row
    if not all(map(math.isfinite, (l2, *(bound[f] for f in scanned)))):
        raise ValueError("the state's pair values overflow: deltaE_L2 or a worst-pair bound is not finite")
    cut, outer = [-math.inf] * 3, outer.tolist()  # an unscanned form keeps no agent
    for f in scanned:
        t = math.sqrt(max(bound[f], 0.0)) * shrink[f] - math.sqrt(max(-0.5 * g.item(f, outer[f]), 0.0))
        cut[f] = -2.0 * t * t if t > 0.0 else math.inf  # keep rho_i >= t: all agents where t <= 0
    keep = np.less_equal(g, np.array(cut)[:, None], out=lay.kept).any(axis=0).nonzero()[0]
    lk, rk = left.take(keep, 0), right.take(keep, 2)  # C order: a transposed factor takes other bits
    block, nk, maxima = keep // lay.rows, len(keep), []  # each kept agent's block in the full scan
    rows, one_block = block_rows(rk), block[0] == block[-1]
    pairs = np.empty(3 * min(rows, nk) * nk)  # each block's (3, rows, cols) products, in turn
    for lo in range(0, nk, rows):
        lo = max(0, min(lo, nk - 2))  # no one-row block: numpy would send it to GEMV, with other bits
        hi, c0 = min(lo + rows, nk), lo and int(block.searchsorted(block[lo]))  # c0: first of lo's block
        # the full scan's entries: each row's columns from its own block's first (all, in one block)
        valid = True if one_block else block[c0:] >= block[lo:hi, None]
        out = pairs[: 3 * (hi - lo) * (nk - c0)].reshape(3, hi - lo, -1)
        pair = np.matmul(lk[lo:hi], rk[:, :, c0:], out=out)
        maxima.append(pair.max(axis=(1, 2), where=valid, initial=-math.inf).tolist())
    best, x = [max(form) for form in zip(*maxima)], ens.x
    span = float(x.max() - x.min()) if d == 1 else math.sqrt(best[1])  # 1D: the extremes, exactly
    return l2, best[0], span, math.nan if coupling is None else best[2]


def fluctuations(ens: Ensemble, a: float) -> tuple[float, float]:
    """Mass-weighted and worst-pair fluctuation metrics (deltaE_L2, deltaE_Linf) of ``pair_scan``."""
    return pair_scan(ens, a)[:2]


def particle_energy_max(ens: Ensemble, potential: Potential) -> float:
    """Maximal particle energy P = max_i |u_i|^2/2 + U(x_i)."""
    return AgentPass(ens, potential).particle_energy


def particle_energy_support(ens: Ensemble, potential: Potential) -> tuple[float, float]:
    """Maximal particle energy P and support diameter D (D from ``pair_scan``)."""
    return particle_energy_max(ens, potential), pair_scan(ens, 0.0)[2]


def lyapunov_v(ens: Ensemble, a: float, lam: float) -> float:
    """Decaying mean functional sum_i m_i (|u_i|^2/2 + a |x_i|^2/2 + 2 lam u_i . x_i).

    Meaningful on a recentered state with quadratic confinement; warns if
    the means are not zero to round-off.
    """
    return AgentPass(ens).lyapunov(a, lam)[0]


def perturbed_particle_energy_max(ens: Ensemble, a: float, lam1: float) -> float:
    """Largest per-agent value of |u|^2/2 + a |x|^2/2 + 2 lam1 u . x.

    The per-agent counterpart of lyapunov_v; its decay controls the
    worst-pair fluctuation.
    """
    return float(AgentPass(ens).cross_energies(a, lam1)[0].max())


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
