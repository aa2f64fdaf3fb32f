"""Acceptance suite: every quantitative claim checked at its stated tolerance.

Each criterion prints one pass/fail line (visible with pytest -s; pytest
prints captured output for failures).  The preset runs are shared through
the session's ``preset_result`` fixture, one run per preset.  Desk scale
throughout: N <= 512, T <= 100, every run under two minutes on one core.
"""

import math

import numpy as np
import pytest

from flocklab.constants import (
    decay_rate,
    linf_constant,
    pair_rates,
    support_scale,
)
from flocklab.diagnostics import fit_rate
from flocklab.dynamics import Ensemble, _step_rhs_u
from flocklab.hydro2d import spectral_arrays
from flocklab.kernels import ConstantKernel, PowerLawKernel, kernel_eval
from flocklab.potentials import (
    PerturbedQuadraticPotential,
    QuadraticPotential,
    ZeroPotential,
    grad_at,
)

from oracles import oscillator_exact, riccati_exact


def _du(x, u, m, kernel, potential):
    """du/dt of the particle system: one stage of the step's right-hand side."""
    du = np.empty_like(u)
    _step_rhs_u(m, kernel, potential)(x, u, np.empty_like(u), du)
    return du


def _report(num: int, description: str, max_violation: float, tol: float):
    passed = max_violation <= tol
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] acceptance {num:02d}: {description}"
          f" (max violation {max_violation:.3e}, tol {tol:.0e})")
    assert passed, f"criterion {num}: violation {max_violation:.3e} exceeds tol {tol:.0e}"


def _within_budget(result):
    # desk scale: every acceptance run finishes within two minutes
    assert result.summary.wall_time < 120.0


@pytest.fixture(scope="module")
def flocking_1d(preset_result):
    return preset_result("quadratic-flocking-1d")


@pytest.fixture(scope="module")
def flocking_2d(preset_result):
    return preset_result("quadratic-flocking-2d")


def _frame_arrays(result):
    frames = result.frames
    return {
        "t": np.asarray([f.t for f in frames]),
        "deltaE_L2": np.asarray([f.delta_e_l2 for f in frames]),
        "deltaE_Linf": np.asarray([f.delta_e_linf for f in frames]),
        "P": np.asarray([f.particle_energy for f in frames]),
        "D": np.asarray([f.diameter for f in frames]),
    }


def test_criterion_01_exponential_l2_flocking(flocking_1d):
    # deltaE_L2(t) <= 2 deltaE_L2(0) exp(-lam t) with the kernel floor taken
    # at the measured run diameter
    _within_budget(flocking_1d)
    data = _frame_arrays(flocking_1d)
    kernel = PowerLawKernel(1.0, 1.0)
    phi_floor = float(kernel_eval(kernel, float(data["D"].max())))
    lam = decay_rate(1.0, 1.0, phi_floor, 1.0)
    bound = 2.0 * data["deltaE_L2"][0] * np.exp(-lam * data["t"])
    _report(1, "exponential L2 flocking bound", float((data["deltaE_L2"] - bound).max()), 1e-9)


def test_criterion_02_uniform_linf_flocking(flocking_1d):
    data = _frame_arrays(flocking_1d)
    kernel = PowerLawKernel(1.0, 1.0)
    phi_floor = float(kernel_eval(kernel, float(data["D"].max())))
    lam = decay_rate(1.0, 1.0, phi_floor, 1.0)
    c_inf = linf_constant(1.0, 1.0, phi_floor, 1.0)
    bound = c_inf * data["deltaE_Linf"][0] * np.exp(-0.5 * lam * data["t"])
    _report(2, "uniform worst-pair flocking bound",
            float((data["deltaE_Linf"] - bound).max()), 1e-9)


def test_criterion_03_uniform_support_bound(flocking_1d, flocking_2d):
    _within_budget(flocking_2d)
    worst = -math.inf
    for result, a in ((flocking_1d, 1.0), (flocking_2d, 1.0)):
        data = _frame_arrays(result)
        frames = result.frames
        r0 = support_scale(a, 1.0, frames[0].total_energy, frames[0].particle_energy,
                           PowerLawKernel(1.0, 1.0))
        worst = max(worst, float((data["P"] - r0).max()))
        worst = max(worst, float((a / 8.0 * data["D"] ** 2 - data["P"]).max()))
    _report(3, "uniform particle-energy and support bounds (1D and 2D)", worst, 1e-9)


def test_criterion_04_harmonic_oscillator_means(preset_result):
    result = preset_result("oscillator-means")
    frames = result.frames
    x0 = np.asarray(frames[0].x_c)
    u0 = np.asarray(frames[0].u_c)
    worst = 0.0
    for f in frames:
        x_ref, u_ref = oscillator_exact(f.t, x0, u0, 4.0)
        err = max(np.abs(np.asarray(f.x_c) - x_ref).max(),
                  np.abs(np.asarray(f.u_c) - u_ref).max())
        worst = max(worst, float(err))
    _report(4, "means follow the closed-form oscillation", worst, 1e-7)


def test_criterion_05_energy_dissipation_identity():
    rng = np.random.default_rng(20240610)
    kernels = [ConstantKernel(1.5), PowerLawKernel(1.0, 1.0)]
    potentials = [QuadraticPotential(0.8), PerturbedQuadraticPotential(1.0, 0.3, 2.0),
                  ZeroPotential()]
    worst = 0.0
    count = 0
    while count < 100:
        d = 1 + count % 2
        kernel = kernels[count % len(kernels)]
        potential = potentials[count % len(potentials)]
        n = int(rng.integers(2, 16))
        ens = Ensemble(
            x=rng.uniform(-2, 2, (n, d)),
            u=rng.uniform(-2, 2, (n, d)),
            m=rng.uniform(0.1, 1.0, n),
        )
        du = _du(ens.x, ens.u, ens.m, kernel, potential)
        lhs = float(ens.m @ np.einsum("nd,nd->n", ens.u, du)
                    + ens.m @ np.einsum("nd,nd->n", grad_at(potential, ens.x), ens.u))
        dissipation = 0.0
        for i in range(n):
            for j in range(n):
                w = kernel_eval(kernel, float(np.linalg.norm(ens.x[i] - ens.x[j])))
                dissipation += ens.m[i] * ens.m[j] * w * float(np.sum((ens.u[i] - ens.u[j]) ** 2))
        dissipation *= -0.5
        worst = max(worst, abs(lhs - dissipation) / max(1.0, abs(dissipation)))
        count += 1
    _report(5, "energy-dissipation identity at 100 random states", worst, 1e-12)


def test_criterion_06_unconditional_blowup_detection(preset_result):
    result = preset_result("blowup-1d-unconditional")
    summary = result.summary
    ok = (
        summary.blowup is not None
        and summary.blowup[1] < 10.0
        and summary.threshold.verdict == "blowup_guaranteed"
        and summary.threshold.condition == "assuB_1"
        and all(c.passed for c in summary.bound_checks if c.name == "blowup_detected")
    )
    _report(6, "unconditional blow-up detected with the right tag", 0.0 if ok else 1.0, 0.0)


def test_criterion_07_guaranteed_smoothness(preset_result):
    result = preset_result("smooth-1d-guaranteed")
    _within_budget(result)
    summary = result.summary
    assert summary.threshold.verdict == "smooth_guaranteed"
    assert summary.blowup is None
    root = 0.5 - math.sqrt(0.05)
    e0_max = max(f.max_e for f in result.frames[:1])
    upper = max(e0_max, 2.0 * 1.0 * 1.0)
    worst = max(
        root - summary.extrema["run_min_e"],
        summary.extrema["run_max_e"] - upper,
    )
    _report(7, "smooth run keeps e inside its trapping region over T=100", worst, 1e-6)


def test_criterion_08_riccati_oracle(riccati_trajectory):
    _, samples = riccati_trajectory
    worst = max(abs(e - float(riccati_exact(t, 0.3, 1.0, 0.2))) for t, e in samples)
    _report(8, "single-characteristic e matches the closed-form solution", worst, 1e-8)


def test_criterion_09_constant_kernel_convex_flocking(preset_result):
    result = preset_result("convex-flocking-constant")
    _within_budget(result)
    data = _frame_arrays(result)
    mu1, mu2, mu3 = pair_rates(1.0, 1.5, 2.0)
    bound = (mu2 / mu3) * data["deltaE_L2"][0] * np.exp(-(mu1 / mu2) * data["t"])
    _report(9, "pair-functional exponential bound under the convex potential",
            float((data["deltaE_L2"] - bound).max()), 1e-9)


def test_criterion_10_algebraic_decay_trend(preset_result):
    result = preset_result("convex-flocking-powerlaw")
    _within_budget(result)
    data = _frame_arrays(result)
    window = data["t"] >= 50.0
    positive = window & (data["deltaE_L2"] > 0.0)
    if positive.sum() >= 5:
        weighted = data["deltaE_L2"][positive] * np.sqrt(1.0 + data["t"][positive])
        slope = -fit_rate(data["t"][positive], weighted).rate
    else:
        # the run reached exact numerical consensus inside the window: the
        # weighted series is identically zero there, bounded outright
        assert float(data["deltaE_L2"][window].max()) == 0.0
        slope = -math.inf
    _report(10, "sqrt(1+t)-weighted fluctuations show no growth trend", slope, 1e-3)


def test_criterion_11_subcritical_2d_persistence(preset_result):
    result = preset_result("subcritical-2d-constant")
    _within_budget(result)
    summary = result.summary
    assert summary.threshold.verdict == "subcritical_quadratic"
    assert summary.blowup is None
    frames = result.frames
    # constant kernel: the forcing budget C_star vanishes, so the gap and the
    # vorticity must stay below their initial maxima and e must stay nonnegative
    eta0 = frames[0].max_abs_eta_s
    omega0 = frames[0].max_abs_omega
    worst = max(
        -min(f.min_e for f in frames),
        max(f.max_abs_eta_s for f in frames) - eta0,
        max(f.max_abs_omega for f in frames) - omega0,
    )
    _report(11, "subcritical 2D run: e stays nonnegative, gap and vorticity decay",
            worst, 1e-6)


def test_criterion_12_algebraic_identities():
    rng = np.random.default_rng(20240612)
    worst = 0.0
    # trace identity for the velocity gradient scalars
    m = rng.uniform(-1.0, 1.0, (1000, 2, 2))
    d, eta_s, omega, _ = spectral_arrays(m, np.zeros(1000))
    tr_m2 = np.einsum("nij,nji->n", m, m)
    worst = max(worst, float(np.abs(tr_m2 - 0.5 * (d * d + eta_s * eta_s - 4 * omega * omega)).max()))
    # zero-mean fluctuation-energy identity
    from flocklab.diagnostics import energy, fluctuations
    from flocklab.dynamics import recenter

    for _ in range(1000):
        n = int(rng.integers(2, 12))
        dim = int(rng.integers(1, 3))
        ens = recenter(Ensemble(
            x=rng.uniform(-2, 2, (n, dim)),
            u=rng.uniform(-2, 2, (n, dim)),
            m=rng.uniform(0.1, 1.0, n),
        ))
        a = float(rng.uniform(0.1, 3.0))
        l2, _ = fluctuations(ens, a)
        e_total, _ = energy(ens, QuadraticPotential(a))
        worst = max(worst, abs(l2 - 4.0 * ens.total_mass * e_total) / max(1.0, l2))
    _report(12, "trace and zero-mean fluctuation identities at 1000 random states",
            worst, 1e-12)


def test_criterion_13_decay_rate_scaling():
    grid = np.asarray([1e-3, 1e-2, 1e-1])
    lams = np.asarray([decay_rate(float(a), 1.0, 1.0, 1.0) for a in grid])
    slope = float(np.polyfit(np.log(grid), np.log(lams), 1)[0])
    _report(13, "decay rate scales linearly in the potential strength",
            abs(slope - 1.0), 0.05)
