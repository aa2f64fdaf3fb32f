"""Simulation orchestration: time loop, frames, bound checks, sweeps.

``analyze`` builds the initial state, summarizes it once as the t = 0
frame, and decides every a-priori quantity (convexity and kernel bounds,
R0, the kernel floor and its source) from that frame; run, classify and
the CLI's constants report all read its record.

``run`` integrates a configuration to T, emits one DiagnosticsFrame per
output stride, and then evaluates post hoc every quantitative bound that
applies to the scenario, each with its stated tolerance:

* exponential fluctuation bounds (L2 and worst-pair) for quadratic
  confinement, with the kernel floor taken at the measured run diameter;
* the uniform particle-energy bound P <= R0 and the pointwise inequality
  (a/8) D^2 <= P;
* the closed-form oscillation of the means;
* the pair-functional exponential bound for constant couplings above the
  stability threshold, and the no-growth trend of sqrt(1+t)-weighted
  fluctuations for decaying kernels above it;
* threshold persistence (e-bounds, gap and vorticity budgets) for the
  characteristic modes, plus blow-up bracket detection.

A blow-up in a run whose classifier predicts blow-up is data, not
failure; a blow-up in any other run, particle runs included, fails its
``no_blowup`` check.
Identical configurations produce byte-identical frames.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import constants as consts
from .config import ConfigError, ExperimentConfig, override_value, serialize_config, with_override
from .diagnostics import (
    DiagnosticsFrame,
    energy,
    fit_rate,
    fluctuations,
    lyapunov_v,
    pair_functional_f,
    particle_energy_support,
    perturbed_particle_energy_max,
)
from .dynamics import BlowupSignal, Ensemble, conv_phi, means, step_rk4
from .hydro1d import classify_1d, detect_blowup, e_upper_bound, smooth_lower_root, step_1d
from .hydro2d import classify_2d_general, classify_2d_quadratic, spectral_arrays, step_2d
from .initial import build_state, ensemble_view  # noqa: F401 (bound by the benchmark)
from .kernels import (
    ConstantKernel,
    PowerLawKernel,
    kernel_bounds,
    kernel_eval,
    kernel_inf,
)
from .potentials import QuadraticPotential, ZeroPotential, convexity_bounds

__all__ = [
    "Analysis",
    "analyze",
    "apriori_velocity_bound",
    "constants_for",
    "BoundCheck",
    "RunSummary",
    "RunResult",
    "run",
    "classify",
    "sweep",
    "frames_csv",
    "sweep_csv",
]

_CENTERED_TOL = 1e-9


@dataclass
class BoundCheck:
    """One evaluated inequality: passes when max_violation <= tol."""

    name: str
    description: str
    tol: float
    max_violation: float

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tol

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "tol": self.tol,
            "max_violation": self.max_violation,
            "pass": self.passed,
        }


@dataclass
class RunSummary:
    scenario: Optional[str]
    mode: str
    config_text: str
    constants: consts.ConstantsReport
    threshold: Optional[object]
    bound_checks: list = field(default_factory=list)
    rate_fits: dict = field(default_factory=dict)
    blowup: Optional[tuple] = None
    wall_time: float = 0.0
    n_frames: int = 0
    notes: list = field(default_factory=list)
    extrema: dict = field(default_factory=dict)

    @property
    def all_checks_pass(self) -> bool:
        return all(c.passed for c in self.bound_checks)

    def as_dict(self) -> dict:
        threshold = asdict(self.threshold) if self.threshold is not None else None
        return {
            "scenario": self.scenario,
            "mode": self.mode,
            "config": self.config_text,
            "constants": self.constants.as_dict(),
            "threshold": threshold,
            "bound_checks": [c.as_dict() for c in self.bound_checks],
            "rate_fits": {k: asdict(v) for k, v in self.rate_fits.items()},
            "blowup": list(self.blowup) if self.blowup else None,
            "wall_time": self.wall_time,
            "n_frames": self.n_frames,
            "notes": list(self.notes),
            "extrema": dict(self.extrema),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)


@dataclass
class RunResult:
    summary: RunSummary
    frames: list

    def csv(self) -> str:
        return frames_csv(self.frames)


@dataclass(frozen=True)
class Analysis:
    """What a configuration fixes before the first step, decided once.

    ``phi_minus`` is the best a-priori kernel floor and ``phi_source`` the
    chain that produced it: kernels bounded below give their infimum
    ("kernel-infimum"); a decaying kernel under quadratic confinement with
    centered data is floored through the support bound,
    phi_minus = phi(sqrt(8 R0 / a)) ("support-chain"); otherwise it is None
    ("unavailable") and the floor has to be measured from the run
    diameter.  ``coupling`` is m0 * phi for a constant kernel, else None.

    ``frame0`` is run's first frame with NaN in the report columns V,
    F1_max and F_const_max.  ``r0`` is the support bound R0 under quadratic
    confinement with centered data, else (or without a closed form) None.
    """

    state: Ensemble
    frame0: DiagnosticsFrame
    a_lo: float
    a_hi: float
    phi_minus: Optional[float]
    phi_source: str
    phi_plus: float
    dphi_inf: float
    coupling: Optional[float]
    centered: bool
    r0: Optional[float]


def analyze(cfg: ExperimentConfig) -> Analysis:
    """Build the initial state and the a-priori bounds that run, classify and the CLI share."""
    state = build_state(cfg)
    a_lo, a_hi = convexity_bounds(cfg.potential)
    frame0 = _state_frame(cfg, a_lo, state)
    _, phi_plus, dphi_inf = kernel_bounds(cfg.kernel, 0.0)
    centered = max(map(abs, frame0.x_c + frame0.u_c), default=0.0) <= _CENTERED_TOL
    r0 = None
    if isinstance(cfg.potential, QuadraticPotential) and centered:
        e0, p0 = frame0.total_energy, frame0.particle_energy
        try:
            r0 = consts.support_scale(cfg.potential.a, cfg.m0, e0, p0, cfg.kernel)
        except ValueError:  # no closed-form R0 for this kernel
            pass
    phi_minus, phi_source = kernel_inf(cfg.kernel), "kernel-infimum"
    if not phi_minus > 0.0:
        phi_minus, phi_source = None, "unavailable"
        if r0 is not None:
            phi_minus = consts.phi_min_from_support(cfg.kernel, cfg.potential.a, r0)
            phi_source = "support-chain"
    coupling = cfg.m0 * cfg.kernel.value if isinstance(cfg.kernel, ConstantKernel) else None
    return Analysis(
        state, frame0, a_lo, a_hi, phi_minus, phi_source, phi_plus, dphi_inf, coupling, centered, r0
    )


def apriori_velocity_bound(cfg: ExperimentConfig, an: Analysis) -> Optional[float]:
    """A-priori bound on max(|u| + |x|); None without a kernel floor or for a_lo <= 0."""
    if an.phi_minus is None or not an.a_lo > 0.0:
        return None
    x, u = an.state.x, an.state.u
    speed_position0 = np.sqrt(np.einsum("nd,nd->n", u, u)) + np.sqrt(np.einsum("nd,nd->n", x, x))
    return consts.velocity_bound(
        an.a_lo, an.a_hi, cfg.m0, an.phi_minus, an.phi_plus, an.frame0.total_energy,
        float(speed_position0.max()),
    )


def constants_for(cfg: ExperimentConfig, an: Analysis, u_max: Optional[float] = None):
    """The closed-form constants report of an analyzed configuration.

    ``u_max`` enables the general-potential budget constants.
    """
    f0 = an.frame0
    report = consts.constants_report(
        an.a_lo, an.a_hi, cfg.m0, an.phi_minus, an.phi_plus, an.dphi_inf, K=an.coupling,
        energy0=f0.total_energy, r0=an.r0, kernel=cfg.kernel, u_max=u_max,
    )
    report.notes.append(f"kernel floor source: {an.phi_source}")
    return report


def classify(cfg: ExperimentConfig, u_max: Optional[float] = None):
    """Threshold classification of a characteristic-mode configuration.

    Returns ``(report, details)``; ``details`` records the kernel floor
    source and, for the general-potential branch, whether u_max was
    supplied (a-posteriori) or derived from the a-priori velocity bound.
    """
    return _classify(cfg, _analyze_characteristic(cfg), u_max)


def _analyze_characteristic(cfg: ExperimentConfig) -> Analysis:
    if cfg.mode not in ("hydro1d", "hydro2d"):
        raise ConfigError(f"classify needs a characteristic mode, got {cfg.mode!r}")
    return analyze(cfg)


def _classify(cfg: ExperimentConfig, an: Analysis, u_max: Optional[float] = None):
    f0 = an.frame0
    details = {"phi_minus": an.phi_minus, "phi_minus_source": an.phi_source}
    if cfg.mode == "hydro1d":
        if an.phi_minus is None:
            # conservative zero-floor fallback: only the floor-free blow-up
            # branches can fire, smoothness can never be certified
            details["phi_minus_source"] = "zero-fallback"
        report = classify_1d(
            an.a_lo, an.a_hi, cfg.m0, an.phi_minus, an.phi_plus, f0.min_e, f0.max_e
        )
        return report, details

    if isinstance(cfg.potential, ZeroPotential):
        raise ConfigError("2D classification needs a uniformly convex potential")
    if an.phi_minus is None:
        raise ConfigError(
            "2D classification needs an a-priori kernel floor; use a constant or"
            " floor-clipped kernel, or a quadratic potential with centered data"
        )
    if isinstance(cfg.potential, QuadraticPotential):
        report = classify_2d_quadratic(
            an.a_lo, cfg.m0, an.phi_minus, an.phi_plus, an.dphi_inf,
            f0.max_abs_eta_s, f0.delta_e_linf, f0.min_e,
        )
        return report, details
    if u_max is None:
        u_max = apriori_velocity_bound(cfg, an)
        details["u_max_source"] = "apriori-bound"
    else:
        details["u_max_source"] = "supplied"
    details["u_max"] = u_max
    report = classify_2d_general(
        an.a_hi, an.a_lo, cfg.m0, an.phi_minus, an.dphi_inf, u_max, f0.max_abs_eta_s, f0.min_e
    )
    return report, details


def run(cfg: ExperimentConfig) -> RunResult:
    """Integrate the configuration and evaluate every applicable bound check."""
    started = time.perf_counter()
    result = _integrate(cfg, analyze(cfg))
    result.summary.wall_time = time.perf_counter() - started
    return result


def _integrate(cfg: ExperimentConfig, an: Analysis) -> RunResult:
    report = constants_for(cfg, an)

    threshold = None
    if cfg.mode in ("hydro1d", "hydro2d"):
        try:
            threshold, _ = _classify(cfg, an)
        except ConfigError as exc:
            report.notes.append(f"classification skipped: {exc}")

    frame_ctx = _FrameContext(cfg, an, report)
    state = an.state
    frames = [frame_ctx.complete(dataclasses.replace(an.frame0), state)]
    track = _StepTrack(an.frame0, active=cfg.mode == "hydro1d")
    blowup = None
    n_steps = cfg.n_steps
    try:
        for i in range(1, n_steps + 1):
            if cfg.mode == "particles":
                state = step_rk4(state, cfg.kernel, cfg.potential, cfg.dt)
            elif cfg.mode == "hydro1d":
                state = step_1d(state, cfg.kernel, cfg.potential, cfg.dt)
            else:
                state = step_2d(state, cfg.kernel, cfg.potential, cfg.dt)
            state.t = i * cfg.dt
            track.observe(state)
            if i % cfg.output_stride == 0 or i == n_steps:
                frames.append(frame_ctx.build(state))
    except BlowupSignal as sig:
        blowup = (sig.t_lo, sig.t_hi)
        track.observe_blowup(sig)
        if state.t > frames[-1].t:  # the last finite state is a frame too
            frames.append(frame_ctx.build(state))

    summary = RunSummary(
        scenario=cfg.scenario,
        mode=cfg.mode,
        config_text=serialize_config(cfg),
        constants=report,
        threshold=threshold,
        blowup=blowup,
        n_frames=len(frames),
    )
    if track.active:
        summary.extrema = {"run_min_e": track.run_min_e, "run_max_e": track.run_max_e}
    _evaluate_checks(summary, cfg, an, frames, track, threshold)
    _fit_rates(summary, cfg, frames)
    return RunResult(summary=summary, frames=frames)


class _StepTrack:
    """Per-step e-extrema for the 1D mode; frame sampling would miss the crossing."""

    def __init__(self, frame0: DiagnosticsFrame, active: bool):
        self.active = active
        self.times, self.min_e = [0.0], [frame0.min_e]
        self.run_min_e, self.run_max_e = frame0.min_e, frame0.max_e

    def observe(self, state):
        if self.active:
            lo = float(state.e.min())
            self.times.append(state.t)
            self.min_e.append(lo)
            self.run_min_e = min(self.run_min_e, lo)
            self.run_max_e = max(self.run_max_e, float(state.e.max()))

    def observe_blowup(self, sig: BlowupSignal):
        if self.active:
            self.times.append(sig.t_hi)
            self.min_e.append(math.nan)

    def series(self):
        if not self.active:
            return None
        return np.asarray(self.times), np.asarray(self.min_e)


class _FrameContext:
    def __init__(self, cfg, an: Analysis, report):
        self.cfg = cfg
        self.a_lo = an.a_lo
        self.coupling = an.coupling
        lyapunov = isinstance(cfg.potential, QuadraticPotential) and an.centered
        self.lam = report.lam if lyapunov else None
        self.lam1 = report.lam1 if lyapunov else None
        self.beta_cross = report.beta_cross
        self.stable_pair = report.mu1 is not None

    def build(self, ens: Ensemble) -> DiagnosticsFrame:
        return self.complete(_state_frame(self.cfg, self.a_lo, ens), ens)

    def complete(self, frame: DiagnosticsFrame, ens: Ensemble) -> DiagnosticsFrame:
        """Fill in the columns that need the report (V, F1_max, F_const_max) of ``ens``'s frame."""
        if self.lam is not None:
            frame.lyapunov = lyapunov_v(ens, self.a_lo, self.lam)
            frame.f1_max = perturbed_particle_energy_max(ens, self.a_lo, self.lam1)
        if self.coupling is not None and self.beta_cross is not None and self.stable_pair:
            frame.f_const_max = pair_functional_f(ens, self.coupling, self.beta_cross)
        return frame


def _state_frame(cfg: ExperimentConfig, a_lo: float, ens: Ensemble) -> DiagnosticsFrame:
    """Every frame column that needs no constants report; V, F1_max and F_const_max are NaN."""
    e_total, e_kin = energy(ens, cfg.potential)
    delta_l2, delta_inf = fluctuations(ens, a_lo)
    p, d = particle_energy_support(ens, cfg.potential)
    c = means(ens)
    frame = DiagnosticsFrame(
        t=ens.t, total_energy=e_total, kinetic_energy=e_kin,
        delta_e_l2=delta_l2, delta_e_linf=delta_inf, particle_energy=p, diameter=d,
        lyapunov=math.nan, f1_max=math.nan, f_const_max=math.nan,
        x_c=tuple(float(v) for v in c.x_c), u_c=tuple(float(v) for v in c.u_c),
    )
    if ens.e is not None:
        frame.min_e, frame.max_e = float(ens.e.min()), float(ens.e.max())
        frame.min_rho, frame.max_rho = float(ens.rho.min()), float(ens.rho.max())
    elif ens.grad_u is not None:
        phi_conv = conv_phi(ens.x, ens.m, cfg.kernel)
        dvals, eta_s, omega, e = spectral_arrays(ens.grad_u, phi_conv)
        frame.min_e, frame.max_e = float(e.min()), float(e.max())
        frame.max_abs_eta_s = float(np.abs(eta_s).max())
        frame.max_abs_omega = float(np.abs(omega).max())
        frame.max_tr_grad = float(dvals.max())
    return frame


def _evaluate_checks(summary, cfg, an: Analysis, frames, track, threshold):
    checks = summary.bound_checks
    quadratic = isinstance(cfg.potential, QuadraticPotential)
    m0 = cfg.m0
    a_lo, a_hi, phi_plus = an.a_lo, an.a_hi, an.phi_plus
    times = np.asarray([f.t for f in frames])
    delta_l2 = np.asarray([f.delta_e_l2 for f in frames])
    delta_inf = np.asarray([f.delta_e_linf for f in frames])
    p_vals = np.asarray([f.particle_energy for f in frames])
    d_vals = np.asarray([f.diameter for f in frames])

    if quadratic and an.centered:
        a = cfg.potential.a
        d_max = float(d_vals.max())
        phi_floor = float(kernel_eval(cfg.kernel, d_max))
        lam = consts.decay_rate(a, m0, phi_floor, phi_plus)
        bound = 2.0 * delta_l2[0] * np.exp(-lam * times)
        checks.append(BoundCheck(
            name="deltaE_exp_bound",
            description=(
                f"deltaE_L2(t) <= 2 deltaE_L2(0) exp(-lam t), lam = {lam:.6g} from"
                f" phi floor {phi_floor:.6g} at measured diameter {d_max:.6g}"
            ),
            tol=1e-9,
            max_violation=float((delta_l2 - bound).max()),
        ))
        c_inf = consts.linf_constant_conservative(a, m0, phi_floor, phi_plus)
        bound = c_inf * delta_inf[0] * np.exp(-0.5 * lam * times)
        checks.append(BoundCheck(
            name="deltaEinf_exp_bound",
            description=(
                f"deltaE_Linf(t) <= C_inf deltaE_Linf(0) exp(-lam t / 2),"
                f" C_inf = {c_inf:.6g} (conservative)"
            ),
            tol=1e-9,
            max_violation=float((delta_inf - bound).max()),
        ))
        if an.r0 is not None:
            checks.append(BoundCheck(
                name="particle_energy_bound",
                description=f"P(t) <= R0 = {an.r0:.6g}",
                tol=1e-9,
                max_violation=float((p_vals - an.r0).max()),
            ))
        else:
            summary.notes.append("particle energy bound skipped: no closed-form R0 for this kernel")
    if quadratic:
        a = cfg.potential.a
        checks.append(BoundCheck(
            name="support_energy_inequality",
            description="(a/8) D(t)^2 <= P(t)",
            tol=1e-9,
            max_violation=float((a / 8.0 * d_vals * d_vals - p_vals).max()),
        ))
        checks.append(_means_check(cfg, an.frame0, frames))

    if an.coupling is not None and a_lo > 0.0 and an.coupling > a_hi / math.sqrt(a_lo):
        mu1, mu2, mu3 = consts.pair_rates(a_lo, a_hi, an.coupling)
        bound = (mu2 / mu3) * delta_l2[0] * np.exp(-(mu1 / mu2) * times)
        checks.append(BoundCheck(
            name="deltaE_pair_bound",
            description=(
                f"deltaE_L2(t) <= (mu2/mu3) deltaE_L2(0) exp(-(mu1/mu2) t),"
                f" mu = ({mu1:.6g}, {mu2:.6g}, {mu3:.6g})"
            ),
            tol=1e-9,
            max_violation=float((delta_l2 - bound).max()),
        ))
    if (
        isinstance(cfg.kernel, PowerLawKernel)
        and a_lo > 0.0
        and m0 * phi_plus > a_hi / math.sqrt(a_lo)
    ):
        check = _sqrt_trend_check(times, delta_l2, cfg.t_final)
        if check is not None:
            checks.append(check)
        else:
            summary.notes.append("sqrt-weighted trend skipped: not enough positive samples")

    verdict = getattr(threshold, "verdict", None)
    if cfg.mode == "hydro1d":
        _hydro1d_checks(summary, cfg, an, track, verdict)
    if cfg.mode == "hydro2d" and verdict in ("subcritical_quadratic", "subcritical_general"):
        _hydro2d_checks(summary, cfg, an, frames, threshold)
    if verdict != "blowup_guaranteed":
        checks.append(BoundCheck(
            name="no_blowup",
            description="run not predicted to blow up must reach T without blow-up",
            tol=0.0,
            max_violation=1.0 if summary.blowup else 0.0,
        ))


def _means_check(cfg, frame0, frames) -> BoundCheck:
    omega = math.sqrt(cfg.potential.a)
    x0 = np.asarray(frame0.x_c)
    u0 = np.asarray(frame0.u_c)
    worst = 0.0
    for f in frames:
        ct, st = math.cos(omega * f.t), math.sin(omega * f.t)
        x_ref = x0 * ct + u0 * (st / omega)
        u_ref = -x0 * omega * st + u0 * ct
        err = max(np.abs(np.asarray(f.x_c) - x_ref).max(), np.abs(np.asarray(f.u_c) - u_ref).max())
        worst = max(worst, float(err))
    return BoundCheck(
        name="means_oscillator",
        description="means follow the closed-form oscillation of frequency sqrt(a)",
        tol=1e-7,
        max_violation=worst,
    )


def _sqrt_trend_check(times, delta_l2, t_final) -> Optional[BoundCheck]:
    window = times >= 0.5 * t_final
    if window.sum() < 5:
        return None
    positive = window & (delta_l2 > 0.0)
    if positive.sum() >= 5:
        weighted = delta_l2[positive] * np.sqrt(1.0 + times[positive])
        fit = fit_rate(times[positive], weighted, window=None)
        slope = -fit.rate
        note = f"fitted slope {slope:.3e}"
    else:
        # fluctuations collapsed to the floating-point floor inside the
        # window: bounded outright, no trend to fit
        slope = -math.inf
        note = "fluctuations fully collapsed within the window"
    return BoundCheck(
        name="deltaE_sqrt_trend",
        description=(
            f"trailing-window slope of log(deltaE_L2 sqrt(1+t)) stays below 1e-3 ({note})"
        ),
        tol=1e-3,
        max_violation=slope,
    )


def _hydro1d_checks(summary, cfg, an: Analysis, track, verdict):
    checks = summary.bound_checks
    m0 = cfg.m0
    if verdict == "smooth_guaranteed":
        # the classifier only certifies smoothness with a known floor
        root = smooth_lower_root(m0, an.phi_minus, an.a_hi)
        checks.append(BoundCheck(
            name="min_e_persistence",
            description=f"min e over the run stays above the lower fixed point {root:.6g}",
            tol=1e-6,
            max_violation=root - track.run_min_e,
        ))
        upper = e_upper_bound(an.frame0.max_e, m0, an.phi_plus, an.a_lo)
        checks.append(BoundCheck(
            name="max_e_bound",
            description=f"max e over the run stays below {upper:.6g}",
            tol=1e-6,
            max_violation=track.run_max_e - upper,
        ))
    if verdict == "blowup_guaranteed":
        series = track.series()
        bracket = detect_blowup(series[0], series[1]) if series else None
        ok = bracket is not None and bracket[1] <= cfg.t_final
        checks.append(BoundCheck(
            name="blowup_detected",
            description="run predicted to blow up must cross the e-threshold before T",
            tol=0.0,
            max_violation=0.0 if ok else 1.0,
        ))
        if bracket is not None:
            summary.notes.append(f"blow-up bracket from min-e series: [{bracket[0]:.6g}, {bracket[1]:.6g}]")


def _hydro2d_checks(summary, cfg, an: Analysis, frames, threshold):
    checks = summary.bound_checks
    f0 = an.frame0
    min_e = min(f.min_e for f in frames)
    checks.append(BoundCheck(
        name="min_e_nonneg",
        description="e stays nonnegative on all characteristics and frames",
        tol=1e-6,
        max_violation=-min_e,
    ))
    gap_budget = threshold.constants.get("etaS_budget")
    if gap_budget is None:
        gap_budget = threshold.constants.get("etaS_max", math.inf)
    max_gap = max(f.max_abs_eta_s for f in frames)
    checks.append(BoundCheck(
        name="eta_s_bound",
        description=f"spectral gap stays within its budget {gap_budget:.6g}",
        tol=1e-6,
        max_violation=max_gap - gap_budget,
    ))
    if threshold.verdict == "subcritical_quadratic":
        lam = threshold.constants["lambda"]
        c_inf = threshold.constants["C_inf"]
        omega_budget = f0.max_abs_omega + 32.0 / lam * cfg.m0 * an.dphi_inf * math.sqrt(
            c_inf * f0.delta_e_linf
        )
    else:
        # general potential: the transport forcing is bounded by half the
        # kernel part of C_max, divided by the persistent floor c2 of e
        forcing = 0.5 * (threshold.constants["C_max"] - 2.0 * an.a_hi)
        omega_budget = max(f0.max_abs_omega, forcing / threshold.constants["c2"])
    max_omega = max(f.max_abs_omega for f in frames)
    checks.append(BoundCheck(
        name="omega_bound",
        description=f"vorticity stays within its budget {omega_budget:.6g}",
        tol=1e-6,
        max_violation=max_omega - omega_budget,
    ))


def _fit_rates(summary, cfg, frames):
    times = np.asarray([f.t for f in frames])
    delta = np.asarray([f.delta_e_l2 for f in frames])
    window = (0.5 * cfg.t_final, float(times.max()))
    mask = (times >= window[0]) & (delta > 0.0)
    if mask.sum() >= 5:
        try:
            summary.rate_fits["deltaE_L2"] = fit_rate(times, delta, window=window)
        except ValueError:
            pass


_SCALAR_COLUMNS = [
    ("t", "t"),
    ("E", "total_energy"),
    ("E_k", "kinetic_energy"),
    ("deltaE_L2", "delta_e_l2"),
    ("deltaE_Linf", "delta_e_linf"),
    ("P", "particle_energy"),
    ("D", "diameter"),
    ("V", "lyapunov"),
    ("F1_max", "f1_max"),
    ("F_const_max", "f_const_max"),
]
_TAIL_COLUMNS = [
    ("min_e", "min_e"),
    ("max_e", "max_e"),
    ("min_rho", "min_rho"),
    ("max_rho", "max_rho"),
    ("max_abs_etaS", "max_abs_eta_s"),
    ("max_abs_omega", "max_abs_omega"),
    ("max_trM", "max_tr_grad"),
]


def frames_csv(frames) -> str:
    """Render frames as CSV with a '#' header comment naming the columns."""
    if not frames:
        return "# columns: (no frames)\n"
    dim = len(frames[0].x_c)
    names = [n for n, _ in _SCALAR_COLUMNS]
    names += [f"xc_{k}" for k in range(dim)] + [f"uc_{k}" for k in range(dim)]
    names += [n for n, _ in _TAIL_COLUMNS]
    lines = ["# columns: " + ",".join(names)]
    for f in frames:
        vals = [getattr(f, attr) for _, attr in _SCALAR_COLUMNS]
        vals += list(f.x_c) + list(f.u_c)
        vals += [getattr(f, attr) for _, attr in _TAIL_COLUMNS]
        lines.append(",".join(repr(float(v)) for v in vals))
    return "\n".join(lines) + "\n"


def sweep(cfg: ExperimentConfig, axes, simulate: bool = False, max_workers: Optional[int] = None):
    """Classify (and optionally simulate) over a grid of one or two config axes.

    ``axes`` is a list of (key_path, values); the grid is traversed in
    row-major order and the output rows preserve it even in parallel mode.
    """
    if not 1 <= len(axes) <= 2:
        raise ConfigError("sweep supports one or two axes")
    axes = [(key, [override_value(key, v) for v in values]) for key, values in axes]
    points = [[(axes[0][0], v)] for v in axes[0][1]]
    if len(axes) == 2:
        points = [p + [(axes[1][0], w)] for p in points for w in axes[1][1]]

    tasks = [(cfg, overrides, simulate) for overrides in points]
    if max_workers is not None and max_workers > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=max_workers) as pool:
            rows = list(pool.map(_sweep_point, tasks))
    else:
        rows = [_sweep_point(t) for t in tasks]
    columns = [key for key, _ in axes] + ["verdict", "condition", "margin"]
    if simulate:
        columns.append("outcome")
    return columns, rows


def _sweep_point(task):
    cfg, overrides, simulate = task
    for key, value in overrides:
        cfg = with_override(cfg, key, value)
    an = _analyze_characteristic(cfg)
    report, _ = _classify(cfg, an)  # before stepping, so an unclassifiable point fails at once
    row = [value for _, value in overrides]
    if hasattr(report, "triggered_condition"):
        row += [report.verdict, report.triggered_condition, report.margin]
    else:
        finite = [v for v in report.margins.values() if not math.isnan(v)]
        margin = min(finite) if finite else math.nan
        row += [report.verdict, ";".join(report.margins), margin]
    if simulate:
        blowup = _integrate(cfg, an).summary.blowup
        row.append(f"blowup[{blowup[0]:.6g},{blowup[1]:.6g}]" if blowup else "completed")
    return row


def sweep_csv(columns, rows) -> str:
    lines = ["# columns: " + ",".join(columns)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)
