"""Simulation orchestration: time loop, frames, bound checks, sweeps.

``analyze`` builds the initial state and decides every a-priori quantity
once: the convexity and kernel bounds, the kernel floor and its source,
the ``Theorems`` record of which of the paper's statements apply (and why
the others do not), and the configuration's one constants report.  It
summarizes the state as the t = 0 frame, built like every later frame.
The run summary, the checks, the classifier and ``flocklab constants``
all read its record, and none of them changes it.

``run`` integrates a configuration to T and emits one DiagnosticsFrame per
output stride.  Its bound checks are one table: ``_check_rows`` yields a
row ``(name, description, tol, excess)`` for each check whose statement
applies, and ``_integrate`` makes every BoundCheck from a row, with
max_violation = max(excess).  ``excess`` is the checked quantity minus its
bound, one value per frame, or one value for the run-extrema and
one-sample rows (the 1D e range, the sqrt trend's slope, the blow-up
rows).  The rows, in order, by statement:

* ``quadratic_flocking``: exponential fluctuation bounds (L2 and
  worst-pair), the kernel floor taken at the measured run diameter, and
  under ``support_bound`` the uniform particle-energy bound P <= R0;
* ``means_oscillation``: (a/8) D^2 <= P and the closed-form oscillation
  of the means;
* ``convex_flocking_constant``: the pair-functional exponential bound;
  ``convex_flocking_decaying``: the no-growth trend of sqrt(1+t)-weighted
  fluctuations;
* the threshold statement that classified the run: threshold persistence
  (the e-bounds, gap and vorticity budgets that its threshold report
  carries in ``constants``) or blow-up bracket detection;
* ``no_blowup`` for every run not predicted to blow up.

A blow-up in a run whose classifier predicts blow-up is data, not
failure; a blow-up in any other run, particle runs included, fails its
``no_blowup`` check.
Identical configurations produce byte-identical frames.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from . import constants as consts
from .config import ConfigError, ExperimentConfig, override_value, serialize_config, with_overrides_each
from .diagnostics import AgentPass, DiagnosticsFrame, fit_rate, frame_columns, pair_scan
from .diagnostics import (  # noqa: F401 (bound by the benchmark; frames read one AgentPass and pair_scan)
    energy,
    fluctuations,
    lyapunov_v,
    pair_functional_f,
    particle_energy_support,
    perturbed_particle_energy_max,
)
from .dynamics import BlowupSignal, Ensemble, Means, _packed, _rk4_core, _step_rhs_u, conv_phi
from .dynamics import means  # noqa: F401 (bound by the benchmark; the means come from AgentPass)
from .dynamics import step_rk4  # noqa: F401 (bound by the benchmark; the run loop calls no step_*)
from .hydro1d import _step_rhs_1d, classify_1d
from .hydro1d import detect_blowup, e_upper_bound, smooth_lower_root, step_1d  # noqa: F401 (benchmark)
from .hydro2d import _step_rhs_2d, classify_2d_general, classify_2d_quadratic, spectral_arrays
from .hydro2d import step_2d  # noqa: F401 (bound by the benchmark)
from .initial import build_state, ensemble_view  # noqa: F401 (bound by the benchmark)
from .kernels import (
    ConstantKernel,
    PowerLawKernel,
    kernel_bounds,
    kernel_eval,
    kernel_inf,
)
from .potentials import QuadraticPotential, convexity_bounds

__all__ = [
    "Analysis",
    "analyze",
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
MAX_GRID_POINTS = 65536  # a sweep's points, all axes together: about a minute of classify-only points


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
        return {**asdict(self), "pass": self.passed}


@dataclass(frozen=True)
class Theorems:
    """Which of the paper's statements a configuration meets the hypotheses of, decided by ``analyze``.

    ``reasons`` maps each statement to None when it applies, else to why it
    does not: ``quadratic_flocking`` (a quadratic potential, centered data)
    with its R0 sub-hypothesis ``support_bound`` (a kernel with a
    closed-form R0), ``means_oscillation`` (a quadratic potential), the
    convex flocking statements ``convex_flocking_constant`` and
    ``convex_flocking_decaying`` (a constant or power-law kernel whose
    coupling passes K > A/sqrt(a)), and the critical thresholds
    ``threshold_1d``, ``threshold_2d_quadratic``, ``threshold_2d_general``
    (a uniformly convex potential and a kernel floor in 2D).  ``threshold``
    is the threshold statement that the mode and the potential family
    select, None for particles: classify judges by it, or raises its reason.
    """

    reasons: dict
    threshold: Optional[str]

    def applies(self, name: str) -> bool:
        return self.reasons[name] is None

    def as_dict(self) -> dict:
        statements = {name: {"applies": why is None, "reason": why} for name, why in self.reasons.items()}
        return {"threshold": self.threshold, "statements": statements}


@dataclass
class RunSummary:
    scenario: Optional[str]
    mode: str
    config_text: str
    constants: consts.ConstantsReport
    theorems: Theorems
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
            "theorems": self.theorems.as_dict(),
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
    columns: dict  # frame_columns(frames), built once by the run

    def csv(self) -> str:
        return frames_csv(self.columns)


@dataclass(frozen=True)
class Analysis:
    """What a configuration fixes before the first step, decided once.

    ``phi_minus`` is the best a-priori kernel floor and ``phi_source`` the
    chain that produced it: kernels bounded below give their infimum
    ("kernel-infimum"); under ``support_bound`` a decaying kernel is floored
    through the support bound R0, phi_minus = phi(sqrt(8 R0 / a))
    ("support-chain"); otherwise it is None ("unavailable") and the floor
    has to be measured from the run diameter.

    ``report`` is the configuration's constants report, with the note
    ``kernel floor source: ...`` last; it has R0 only under
    ``support_bound``.  The record copies from it only the two pairs that
    every frame needs: ``pair_f`` is (K, beta_cross) of the pair functional
    F under ``convex_flocking_constant``, else (); ``v_rates`` is (lam,
    lam1), the rates of V and F1, under ``quadratic_flocking`` with a
    kernel floor, else ().  The report has the same two rates for any
    a_lo > 0 with a floor, where no V exists, because its C_inf and C_*
    constants need them.

    ``frame0`` is run's first frame.
    """

    state: Ensemble
    frame0: DiagnosticsFrame
    report: consts.ConstantsReport
    theorems: Theorems
    a_lo: float
    a_hi: float
    phi_minus: Optional[float]
    phi_source: str
    phi_plus: float
    dphi_inf: float
    pair_f: tuple
    v_rates: tuple


def analyze(cfg: ExperimentConfig) -> Analysis:
    """The initial state, its a-priori bounds, the statements that apply and the constants report."""
    try:
        state = build_state(cfg)
    except ValueError as exc:  # a configuration whose initial state is not a valid Ensemble
        raise ConfigError(f"initial data: {exc}") from None
    sums = AgentPass(state, cfg.potential)  # frame 0's, read by the statements and the report too
    a_lo, a_hi = convexity_bounds(cfg.potential)
    phi_plus, dphi_inf = kernel_bounds(cfg.kernel)
    phi_inf = kernel_inf(cfg.kernel)
    coupling = cfg.m0 * cfg.kernel.value if isinstance(cfg.kernel, ConstantKernel) else None
    theorems = _theorems(cfg, sums.means, a_lo, a_hi, phi_plus, phi_inf, coupling)
    e0, r0 = sums.total_energy, None
    if theorems.applies("support_bound"):
        r0 = consts.support_scale(cfg.potential.a, cfg.m0, e0, sums.particle_energy, cfg.kernel)
    phi_minus, phi_source = phi_inf, "kernel-infimum"
    if not phi_minus > 0.0:
        phi_minus, phi_source = None, "unavailable"
        floor = 0.0 if r0 is None else consts.phi_min_from_support(cfg.kernel, cfg.potential.a, r0)
        if floor > 0.0:  # phi(R0 = inf) = 0 is no floor
            phi_minus, phi_source = floor, "support-chain"
    max0 = float((np.sqrt(sums.uu) + np.sqrt(sums.xx)).max())
    report = consts.constants_report(  # through the module, so a rebound report builder applies
        a_lo, a_hi, cfg.m0, phi_minus, phi_plus, dphi_inf, K=coupling, energy0=e0, r0=r0,
        kernel=cfg.kernel, max0=max0,
    )
    report.notes.append(f"kernel floor source: {phi_source}")
    pair_f = (coupling, report.beta_cross) if theorems.applies("convex_flocking_constant") else ()
    confined = theorems.applies("quadratic_flocking") and report.lam is not None
    v_rates = (report.lam, report.lam1) if confined else ()
    frame0 = _state_frame(cfg, state, a_lo, pair_f, v_rates, sums)
    return Analysis(
        state, frame0, report, theorems, a_lo, a_hi, phi_minus, phi_source, phi_plus, dphi_inf, pair_f,
        v_rates,
    )


def _theorems(cfg, c: Means, a_lo: float, a_hi: float, phi_plus: float, phi_inf: float, coupling):
    """Decide every statement's hypotheses from the families, the convexity and kernel bounds, the means."""
    kernel, quadratic = cfg.kernel, isinstance(cfg.potential, QuadraticPotential)
    not_quadratic = None if quadratic else "the potential is not quadratic"
    centered = max(map(abs, (*c.x_c, *c.u_c))) <= _CENTERED_TOL
    flocking = not_quadratic or (None if centered else "the initial data are not centered")
    has_r0 = isinstance(kernel, ConstantKernel) or isinstance(kernel, PowerLawKernel) and kernel.beta <= 1.0
    support = flocking or (None if has_r0 else "no closed-form R0 for this kernel")
    constant, decaying = "the kernel is not constant", "the kernel is not a power law"
    if coupling is not None:
        constant = _stability_reason(a_lo, a_hi, coupling)
    if isinstance(kernel, PowerLawKernel):
        decaying = _stability_reason(a_lo, a_hi, cfg.m0 * phi_plus)
    hypothesis_2d = None  # a kernel floor is the infimum, or comes from R0 through the support bound
    if not a_lo > 0.0:
        hypothesis_2d = "2D classification needs a uniformly convex potential"
    elif not (phi_inf > 0.0 or support is None):
        hypothesis_2d = (
            "2D classification needs an a-priori kernel floor; use a constant or"
            " floor-clipped kernel, or a quadratic potential with centered data"
        )
    mode_2d = None if cfg.mode == "hydro2d" else f"the mode is {cfg.mode}, not hydro2d"
    reasons = {
        "quadratic_flocking": flocking,
        "support_bound": support,
        "means_oscillation": not_quadratic,
        "convex_flocking_constant": constant,
        "convex_flocking_decaying": decaying,
        "threshold_1d": None if cfg.mode == "hydro1d" else f"the mode is {cfg.mode}, not hydro1d",
        "threshold_2d_quadratic": mode_2d or not_quadratic or hypothesis_2d,
        "threshold_2d_general": mode_2d or ("the potential is quadratic" if quadratic else hypothesis_2d),
    }
    selected = "threshold_2d_quadratic" if quadratic else "threshold_2d_general"
    return Theorems(reasons, {"hydro1d": "threshold_1d", "hydro2d": selected}.get(cfg.mode))


def _stability_reason(a: float, A: float, K: float) -> Optional[str]:
    if consts.pair_stable(a, A, K):
        return None
    if not a > 0.0:
        return "the potential is not uniformly convex"
    return f"stability condition fails: K = {K:.6g} <= A/sqrt(a) = {A / math.sqrt(a):.6g}"


def classify(cfg: ExperimentConfig, u_max: Optional[float] = None):
    """Threshold classification of a characteristic-mode configuration.

    Returns ``(report, details)``; ``details`` records the kernel floor
    source and, for the general-potential branch, whether u_max was
    supplied (a-posteriori) or is the constants report's a-priori bound.
    """
    return _classify(cfg, analyze(cfg), u_max)


def _classify(cfg: ExperimentConfig, an: Analysis, u_max: Optional[float] = None):
    theorems, f0 = an.theorems, an.frame0
    statement = theorems.threshold
    if statement is None:
        raise ConfigError(f"classify needs a characteristic mode, got {cfg.mode!r}")
    if not theorems.applies(statement):
        raise ConfigError(theorems.reasons[statement])
    if u_max is not None and statement != "threshold_2d_general":
        raise ConfigError(
            f"u_max is read only by threshold_2d_general; this configuration is judged by {statement}"
        )
    details = {"phi_minus": an.phi_minus, "phi_minus_source": an.phi_source}
    if statement == "threshold_1d":
        if an.phi_minus is None:
            # conservative zero-floor fallback: only the floor-free blow-up
            # branches can fire, smoothness can never be certified
            details["phi_minus_source"] = "zero-fallback"
        return classify_1d(an.a_lo, an.a_hi, cfg.m0, an.phi_minus, an.phi_plus, f0.min_e, f0.max_e), details
    if statement == "threshold_2d_quadratic":  # lam, C_inf and C_star from the constants report
        rep, data = an.report, (f0.max_abs_eta_s, f0.max_abs_omega, f0.delta_e_linf, f0.min_e)
        report = classify_2d_quadratic(an.a_lo, cfg.m0, an.phi_minus, rep.lam, rep.c_inf, rep.c_star, *data)
        return report, details
    if u_max is None:
        u_max, details["u_max_source"] = an.report.u_max, "apriori-bound"
    else:
        u0 = float(np.linalg.norm(an.state.u, axis=1).max())
        if not u0 <= u_max < math.inf:  # a velocity bound holds at t = 0 already
            raise ConfigError(f"u_max must be finite and >= the initial max |u_i| = {u0:.6g}, got {u_max}")
        details["u_max_source"] = "supplied"
    details["u_max"] = u_max
    data = (f0.max_abs_eta_s, f0.max_abs_omega, f0.min_e)
    report = classify_2d_general(an.a_lo, an.a_hi, cfg.m0, an.phi_minus, an.dphi_inf, u_max, *data)
    return report, details


def run(cfg: ExperimentConfig) -> RunResult:
    """Integrate the configuration and evaluate every applicable bound check."""
    started = time.perf_counter()
    result = _integrate(cfg, analyze(cfg))
    result.summary.wall_time = time.perf_counter() - started
    return result


def _integrate(cfg: ExperimentConfig, an: Analysis) -> RunResult:
    threshold, notes = None, []
    if an.theorems.threshold is not None:
        try:
            threshold, _ = _classify(cfg, an)
        except ConfigError as exc:
            notes.append(f"classification skipped: {exc}")

    # the loop marches the flat vector with the RK4 core: an Ensemble is built only for a frame
    state, frames, blowup = an.state, [an.frame0], None
    scratch, y = state._scratch, state.flat
    build = {"particles": _step_rhs_u, "hydro1d": _step_rhs_1d, "hydro2d": _step_rhs_2d}[cfg.mode]
    f = scratch.rhs(build, state.m, cfg.kernel, cfg.potential)
    # the 1D run's e range is taken every step, as each characteristic's extremes over time, since
    # the persistence checks need more than the frames
    track_e = state.e is not None
    if track_e:
        e = next(slice(lo, hi) for name, lo, hi, _ in scratch.layout if name == "e")
        e_lo, e_hi = state.e.copy(), state.e.copy()
    dt, stride, n_steps = cfg.dt, cfg.output_stride, cfg.n_steps

    def frame(y, t):
        return _state_frame(cfg, _packed(state, y, t), an.a_lo, an.pair_f, an.v_rates)

    with np.errstate(over="ignore", invalid="ignore"):  # once per run: a blowing-up step overflows quietly
        try:
            for i in range(1, n_steps + 1):
                y = _rk4_core(scratch, f, y, (i - 1) * dt, dt)
                if track_e:
                    np.minimum(e_lo, y[e], out=e_lo)
                    np.maximum(e_hi, y[e], out=e_hi)
                if i % stride == 0 or i == n_steps:
                    frames.append(frame(y, i * dt))
        except BlowupSignal as sig:
            blowup = (sig.t_lo, sig.t_hi)
            if sig.t_lo > frames[-1].t:  # the last finite state is a frame too
                frames.append(frame(y, sig.t_lo))

    summary = RunSummary(
        scenario=cfg.scenario,
        mode=cfg.mode,
        config_text=serialize_config(cfg),
        constants=an.report,
        theorems=an.theorems,
        threshold=threshold,
        blowup=blowup,
        n_frames=len(frames),
        notes=notes,
    )
    if track_e:
        summary.extrema = {"run_min_e": float(e_lo.min()), "run_max_e": float(e_hi.max())}
    cols = frame_columns(frames)
    for name, description, tol, excess in _check_rows(summary, cfg, an, cols):
        summary.bound_checks.append(BoundCheck(name, description, tol, float(np.max(excess))))
    window = (0.5 * cfg.t_final, float(cols["t"].max()))
    try:  # needs 5 samples in the window, all positive
        summary.rate_fits["deltaE_L2"] = fit_rate(cols["t"], cols["delta_e_l2"], window=window)
    except ValueError:
        pass
    return RunResult(summary=summary, frames=frames, columns=cols)


def _state_frame(
    cfg: ExperimentConfig, ens: Ensemble, a_lo: float, pair_f: tuple, v_rates: tuple, sums=None
) -> DiagnosticsFrame:
    """Every frame column: the pair columns from one ``pair_scan``, E, E_k, P, the means and (given
    ``v_rates``) V and F1_max from one ``AgentPass``, ``sums`` where the caller has taken it."""
    sums = sums or AgentPass(ens, cfg.potential)
    delta_l2, delta_inf, d, f_const = pair_scan(ens, a_lo, *pair_f)
    c = sums.means
    frame = DiagnosticsFrame(
        t=ens.t, total_energy=sums.total_energy, kinetic_energy=sums.kinetic_energy, delta_e_l2=delta_l2,
        delta_e_linf=delta_inf, particle_energy=sums.particle_energy, diameter=d,
        lyapunov=math.nan, f1_max=math.nan, f_const_max=f_const,
        x_c=tuple(c.x_c.tolist()), u_c=tuple(c.u_c.tolist()),
    )
    if v_rates:
        frame.lyapunov, frame.f1_max = sums.lyapunov(a_lo, *v_rates)
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


def _check_rows(summary, cfg, an: Analysis, cols: dict):
    """Yield ``(name, description, tol, excess)`` for every bound check that applies, in summary order.

    ``cols`` is the frames' ``frame_columns``; a skipped check leaves a note.
    """
    times, delta_l2, delta_inf = cols["t"], cols["delta_e_l2"], cols["delta_e_linf"]
    p_vals, d_vals = cols["particle_energy"], cols["diameter"]
    m0, a, phi_plus, theorems = cfg.m0, an.a_lo, an.phi_plus, an.theorems
    if theorems.applies("quadratic_flocking"):
        d_max = float(d_vals.max())
        phi_floor = float(kernel_eval(cfg.kernel, d_max))
        lam = consts.decay_rate(a, m0, phi_floor, phi_plus)
        yield (
            "deltaE_exp_bound",
            f"deltaE_L2(t) <= 2 deltaE_L2(0) exp(-lam t), lam = {lam:.6g} from"
            f" phi floor {phi_floor:.6g} at measured diameter {d_max:.6g}",
            1e-9, delta_l2 - 2.0 * delta_l2[0] * np.exp(-lam * times),
        )
        c_inf = consts.linf_constant(a, m0, phi_floor, phi_plus)
        yield (
            "deltaEinf_exp_bound",
            f"deltaE_Linf(t) <= C_inf deltaE_Linf(0) exp(-lam t / 2), C_inf = {c_inf:.6g} (conservative)",
            1e-9, delta_inf - c_inf * delta_inf[0] * np.exp(-0.5 * lam * times),
        )
        if theorems.applies("support_bound"):
            r0 = an.report.r0
            yield "particle_energy_bound", f"P(t) <= R0 = {r0:.6g}", 1e-9, p_vals - r0
        else:
            summary.notes.append(f"particle energy bound skipped: {theorems.reasons['support_bound']}")
    if theorems.applies("means_oscillation"):
        yield "support_energy_inequality", "(a/8) D(t)^2 <= P(t)", 1e-9, a / 8.0 * d_vals * d_vals - p_vals
        omega = math.sqrt(a)
        x_c, u_c = cols["x_c"], cols["u_c"]
        x0, u0, phase = x_c[0], u_c[0], (omega * times).tolist()
        ct = np.array([math.cos(w) for w in phase])[:, None]  # libm's, as one frame at a time
        st = np.array([math.sin(w) for w in phase])[:, None]
        x_err = np.abs(x_c - (x0 * ct + u0 * (st / omega))).max(axis=1)
        u_err = np.abs(u_c - (-x0 * omega * st + u0 * ct)).max(axis=1)
        yield (
            "means_oscillator", "means follow the closed-form oscillation of frequency sqrt(a)",
            1e-7, np.where(u_err > x_err, u_err, x_err),  # per frame, Python's max(x_err, u_err), NaN alike
        )

    if theorems.applies("convex_flocking_constant"):
        mu1, mu2, mu3 = an.report.mu1, an.report.mu2, an.report.mu3
        yield (
            "deltaE_pair_bound",
            f"deltaE_L2(t) <= (mu2/mu3) deltaE_L2(0) exp(-(mu1/mu2) t),"
            f" mu = ({mu1:.6g}, {mu2:.6g}, {mu3:.6g})",
            1e-9, delta_l2 - (mu2 / mu3) * delta_l2[0] * np.exp(-(mu1 / mu2) * times),
        )
    if theorems.applies("convex_flocking_decaying"):
        window = times >= 0.5 * cfg.t_final
        positive = window & (delta_l2 > 0.0)
        if window.sum() < 5:
            summary.notes.append("sqrt-weighted trend skipped: fewer than 5 frames in the trailing half")
        else:
            if positive.sum() >= 5:
                weighted = delta_l2[positive] * np.sqrt(1.0 + times[positive])
                slope = -fit_rate(times[positive], weighted, window=None).rate
                note = f"fitted slope {slope:.3e}"
            else:
                # fluctuations collapsed to the floating-point floor inside the
                # window: bounded outright, no trend to fit
                slope, note = -math.inf, "fluctuations fully collapsed within the window"
            yield (
                "deltaE_sqrt_trend",
                f"trailing-window slope of log(deltaE_L2 sqrt(1+t)) stays below 1e-3 ({note})",
                1e-3, slope,
            )

    verdict = getattr(summary.threshold, "verdict", None)
    bounds = getattr(summary.threshold, "constants", {})
    if verdict == "smooth_guaranteed":
        root, upper = bounds["e_lower_root"], bounds["e_upper"]
        yield (
            "min_e_persistence", f"min e over the run stays above the lower fixed point {root:.6g}",
            1e-6, root - summary.extrema["run_min_e"],
        )
        yield (
            "max_e_bound", f"max e over the run stays below {upper:.6g}",
            1e-6, summary.extrema["run_max_e"] - upper,
        )
    if verdict == "blowup_guaranteed":
        ok = summary.blowup is not None and summary.blowup[1] <= cfg.t_final
        yield (
            "blowup_detected", "run predicted to blow up must cross the e-threshold before T",
            0.0, 0.0 if ok else 1.0,
        )
    if verdict in ("subcritical_quadratic", "subcritical_general"):
        yield (
            "min_e_nonneg", "e stays nonnegative on all characteristics and frames",
            1e-6, -cols["min_e"],
        )
        gap_budget, omega_budget = bounds["etaS_budget"], bounds["omega_budget"]
        yield (
            "eta_s_bound", f"spectral gap stays within its budget {gap_budget:.6g}",
            1e-6, cols["max_abs_eta_s"] - gap_budget,
        )
        yield (
            "omega_bound", f"vorticity stays within its budget {omega_budget:.6g}",
            1e-6, cols["max_abs_omega"] - omega_budget,
        )
    if verdict != "blowup_guaranteed":
        yield (
            "no_blowup", "run not predicted to blow up must reach T without blow-up",
            0.0, 1.0 if summary.blowup else 0.0,
        )


def frames_csv(cols: dict) -> str:
    """Render a run's ``frame_columns`` as CSV, with a '#' header naming DiagnosticsFrame's columns."""
    names = []
    for f in fields(DiagnosticsFrame):
        csv, values = f.metadata["csv"], cols[f.name]
        names += [f"{csv}_{k}" for k in range(values.shape[1])] if values.ndim == 2 else [csv]
    return sweep_csv(names, np.column_stack(list(cols.values())).tolist())


def sweep(cfg: ExperimentConfig, axes, simulate: bool = False):
    """Classify (and optionally simulate) over a grid of one or two config axes.

    ``axes`` is a list of (key_path, values); the grid points run in this
    process, one after another, in row-major order.
    """
    if not 1 <= len(axes) <= 2:
        raise ConfigError("sweep supports one or two axes")
    if len(axes) == 2 and axes[0][0] == axes[1][0]:
        raise ConfigError(f"sweep axes must name two different keys, got {axes[0][0]!r} twice")
    size = math.prod(len(values) for _, values in axes)
    if size > MAX_GRID_POINTS:
        raise ConfigError(f"sweep grid has {size} points, more than the cap of {MAX_GRID_POINTS}")
    axes = [(key, [override_value(key, v) for v in values]) for key, values in axes]
    points = [[(axes[0][0], v)] for v in axes[0][1]]
    if len(axes) == 2:
        points = [p + [(axes[1][0], w)] for p in points for w in axes[1][1]]

    # every point's config is built, and so checked, before the first point is analyzed
    configs = with_overrides_each(cfg, points)
    rows = [_sweep_point(point, overrides, simulate) for point, overrides in zip(configs, points)]
    columns = [key for key, _ in axes] + ["verdict", "condition", "margin"]
    if simulate:
        columns.append("outcome")
    return columns, rows


def _sweep_point(cfg: ExperimentConfig, overrides, simulate: bool):
    an = analyze(cfg)
    report, _ = _classify(cfg, an)  # before stepping, so an unclassifiable point fails at once
    row = [value for _, value in overrides] + [report.verdict, report.condition, report.margin]
    if simulate:
        blowup = _integrate(cfg, an).summary.blowup
        row.append(f"blowup[{blowup[0]:.6g},{blowup[1]:.6g}]" if blowup else "completed")
    return row


def sweep_csv(columns, rows) -> str:
    """A table's CSV, frames' too: a '# columns: ' line, then one row per line, str cells (a float's repr)."""
    return "\n".join(["# columns: " + ",".join(columns), *(",".join(map(str, row)) for row in rows)]) + "\n"
