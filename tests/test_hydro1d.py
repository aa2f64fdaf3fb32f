"""1D characteristic solver: initialization, e-dynamics, thresholds, blow-up."""

import math

import numpy as np
import pytest

from flocklab.dynamics import BlowupSignal, Ensemble
from flocklab.hydro1d import (
    BumpDensity,
    VelocityProfile,
    classify_1d,
    detect_blowup,
    e_upper_bound,
    init_characteristics,
    smooth_lower_root,
    step_1d,
)
from flocklab.hydro1d import _step_rhs_1d
from flocklab.kernels import ConstantKernel, PowerLawKernel, kernel_eval
from flocklab.potentials import QuadraticPotential, ZeroPotential

from oracles import lagrange_derivative, riccati_blowup_time, riccati_exact


# --- initialization ---


def test_init_constant_kernel_rest_velocity():
    state = init_characteristics(
        BumpDensity(1.0, 1.0), VelocityProfile("linear", 0.0), 32, ConstantKernel(2.0), m0=1.5
    )
    assert np.allclose(state.e, 1.5 * 2.0, atol=1e-14)
    assert state.total_mass == pytest.approx(1.5, abs=1e-13)
    assert np.all(state.m > 0.0)


def test_init_profile_derivative_enters_e_exactly():
    kernel = PowerLawKernel(1.0, 1.0)
    state = init_characteristics(BumpDensity(1.0, 1.0), VelocityProfile("linear", 1.0), 16, kernel)
    conv = np.array([
        sum(state.m[j] * kernel_eval(kernel, abs(state.x[i, 0] - state.x[j, 0])) for j in range(16))
        for i in range(16)
    ])
    assert np.allclose(state.e - conv, 1.0, atol=1e-13)


def test_init_symmetric_profile_gives_symmetric_e():
    state = init_characteristics(
        BumpDensity(2.0, 1.3), VelocityProfile("sinusoidal", 0.5), 40, PowerLawKernel(1.0, 0.5)
    )
    assert np.allclose(state.e, state.e[::-1], atol=1e-13)
    assert np.allclose(state.x, -state.x[::-1], atol=1e-15)


def test_init_rejects_zero_mass_profile():
    class Flat:
        half_width = 1.0

        def value(self, x):
            return np.zeros_like(np.asarray(x, dtype=float))

    with pytest.raises(ValueError):
        init_characteristics(Flat(), VelocityProfile("linear", 0.0), 8, ConstantKernel(1.0))


def test_init_density_values_match_mass_per_cell():
    density = BumpDensity(3.0, 1.0)
    state = init_characteristics(density, VelocityProfile("linear", 0.0), 64, ConstantKernel(1.0), m0=2.0)
    dx = 2.0 / 64
    assert np.allclose(state.rho * dx, state.m, atol=1e-15)


# --- right-hand side ---


def _rhs_1d(state, kernel, potential):
    arrays = state.evolved().values()
    out = tuple(map(np.empty_like, arrays))
    _step_rhs_1d(state.m, kernel, potential)(*arrays, *out)
    return out


def test_rhs_zero_e_feels_only_hessian():
    state = Ensemble(x=[[0.2]], u=[[0.0]], e=[0.0], rho=[1.0], m=[1.0])
    _, _, de, _ = _rhs_1d(state, ConstantKernel(1.0), QuadraticPotential(0.7))
    assert de[0] == pytest.approx(-0.7)


def test_rhs_riccati_fixed_points():
    K, A = 1.0, 0.2
    root_hi = 0.5 + math.sqrt(0.05)
    state = Ensemble(x=[[0.0]], u=[[0.0]], e=[root_hi], rho=[1.0], m=[1.0])
    _, _, de, _ = _rhs_1d(state, ConstantKernel(K), QuadraticPotential(A))
    assert de[0] == pytest.approx(0.0, abs=1e-15)


def test_rhs_vacuum_density_is_invariant():
    state = Ensemble(x=[[0.0], [1.0]], u=[[0.1], [-0.1]], e=[0.5, 0.5], rho=[0.0, 1.0], m=[0.5, 0.5])
    _, _, _, drho = _rhs_1d(state, ConstantKernel(1.0), ZeroPotential())
    assert drho[0] == 0.0


def test_step_signals_on_huge_e():
    state = Ensemble(x=[[0.0]], u=[[0.0]], e=[-2.0e6], rho=[1.0], m=[1.0])
    with pytest.raises(BlowupSignal) as info:
        step_1d(state, ConstantKernel(1.0), ZeroPotential(), 1e-3)
    assert (info.value.t_lo, info.value.t_hi) == (0.0, 1e-3)
    # a density beyond the state cap is no blow-up: it grows without bound as a flock contracts
    dense = Ensemble(x=[[0.0]], u=[[0.0]], e=[0.5], rho=[1.0e12], m=[1.0])
    assert step_1d(dense, ConstantKernel(1.0), ZeroPotential(), 1e-3).rho[0] > 1.0e12


# --- integration against the closed form ---


def test_riccati_oracle_single_characteristic(riccati_trajectory):
    # constant kernel and constant Hessian make e an autonomous scalar ODE;
    # the production stepper's trajectory is compared to the closed form
    e0, samples = riccati_trajectory
    assert e0 == pytest.approx(0.3, abs=1e-15)
    worst = max(abs(e - float(riccati_exact(t, 0.3, 1.0, 0.2))) for t, e in samples)
    assert len(samples) == 500 and worst <= 1e-8


def test_blowup_bracket_matches_closed_form_time():
    # every characteristic blows up; the first crossing is set by min e0
    K, A = 2.0, 5.0
    kernel = ConstantKernel(K)
    state = init_characteristics(BumpDensity(1.0, 1.0), VelocityProfile("sinusoidal", 0.4), 32, kernel)
    t_star = min(riccati_blowup_time(float(e0), K, A) for e0 in state.e)
    dt = 1e-3
    times, mins = [0.0], [float(state.e.min())]
    bracket = None
    for i in range(1, 5000):
        try:
            state = step_1d(state, kernel, QuadraticPotential(A), dt)
        except BlowupSignal as sig:
            times.append(sig.t_hi)
            mins.append(math.nan)
            bracket = detect_blowup(np.asarray(times), np.asarray(mins))
            break
        times.append(i * dt)
        mins.append(float(state.e.min()))
        if bracket is None:
            bracket = detect_blowup(np.asarray(times), np.asarray(mins))
            if bracket is not None:
                break
    assert bracket is not None
    lo, hi = bracket
    assert t_star - 0.01 <= hi <= t_star + 0.05
    assert lo < hi or lo == hi


def test_smooth_case_bounds_hold_short_run():
    K, A = 1.0, 0.2
    kernel = ConstantKernel(K)
    state = init_characteristics(BumpDensity(1.0, 1.5), VelocityProfile("sinusoidal", -0.7), 64, kernel)
    root = smooth_lower_root(1.0, K, A)
    upper = e_upper_bound(float(state.e.max()), 1.0, K, A)
    for i in range(5000):
        state = step_1d(state, kernel, QuadraticPotential(A), 1e-3)
        assert state.e.min() >= root - 1e-6
        assert state.e.max() <= upper + 1e-6
    assert np.all(state.rho >= 0.0)


def test_masses_never_change():
    kernel = PowerLawKernel(1.0, 1.0)
    state = init_characteristics(BumpDensity(1.0, 1.0), VelocityProfile("sinusoidal", 0.3), 16, kernel)
    m0 = state.m.copy()
    for _ in range(50):
        state = step_1d(state, kernel, QuadraticPotential(1.0), 1e-3)
    assert np.array_equal(state.m, m0)


def test_e_consistency_with_neighbor_reconstruction():
    # e - phi*rho should match a finite-difference du/dx from neighboring
    # characteristics at second order in the node spacing
    def max_error(n):
        kernel = ConstantKernel(1.0)
        state = init_characteristics(BumpDensity(1.0, 1.5), VelocityProfile("sinusoidal", -0.7), n, kernel)
        worst = 0.0
        for i in range(1, 2001):
            state = step_1d(state, kernel, QuadraticPotential(0.2), 1e-3)
            if i % 500 == 0:
                order = np.argsort(state.x[:, 0])
                x, u = state.x[order, 0], state.u[order, 0]
                e_sorted = state.e[order]
                conv = np.full(n, state.total_mass * 1.0)
                dudx = lagrange_derivative(x, u)
                err = np.abs((e_sorted - conv)[1:-1] - dudx)
                worst = max(worst, float(err.max()))
        return worst

    err_coarse = max_error(32)
    err_fine = max_error(64)
    assert err_fine < 5e-3
    assert err_coarse / err_fine > 2.5


# --- threshold classification ---


def test_classify_potential_free_sharp_threshold():
    report = classify_1d(0.0, 0.0, 1.0, 1.0, 1.0, 0.01, 0.01)
    assert report.verdict == "smooth_guaranteed"


def test_classify_unconditional_blowup():
    report = classify_1d(5.0, 5.0, 1.0, 2.0, 2.0, 10.0, 10.0)
    assert report.verdict == "blowup_guaranteed"
    assert report.condition == "assuB_1"
    assert report.margin == pytest.approx(4.0)
    assert report.constants == {}


def test_classify_smooth_example():
    report = classify_1d(0.2, 0.2, 1.0, 1.0, 1.0, 0.3, 3.0)
    assert report.verdict == "smooth_guaranteed"
    assert report.margin == pytest.approx(0.3 - (0.5 - math.sqrt(0.05)))
    # the bounds its check rows read: the lower fixed point, and max(e0_max, 2 m0 phi_plus)
    assert report.constants == {"e_lower_root": 0.5 - math.sqrt(0.05), "e_upper": 3.0}
    assert classify_1d(0.2, 0.2, 1.0, 1.0, 1.0, 0.3, 0.3).constants["e_upper"] == 2.0


def test_classify_supercritical_data_blowup():
    report = classify_1d(0.5, 0.5, 1.0, 2.0, 2.0, 0.1, 0.1)
    assert report.verdict == "blowup_guaranteed"
    assert report.condition == "assuB_2"


def test_classify_concave_branch():
    report = classify_1d(-1.0, 0.0, 1.0, 1.0, 1.0, -1.0, -1.0)
    assert report.verdict == "blowup_guaranteed"
    assert report.condition == "assuB_3"


def test_classify_indeterminate_between_thresholds():
    report = classify_1d(0.2, 0.3, 1.0, 1.0, 1.0, 0.5, 0.5)
    assert report.verdict == "indeterminate"
    assert report.margin <= 0.0


def test_classify_equality_is_indeterminate():
    # thresholds are strict: zero margin must not certify either verdict
    report = classify_1d(0.25, 0.25, 1.0, 1.0, 1.0, 1.0, 1.0)
    assert report.verdict == "indeterminate"


def test_classify_without_kernel_floor():
    # phi_minus=None: only the floor-free blow-up branches can fire
    report = classify_1d(5.0, 5.0, 1.0, None, 2.0, 10.0, 10.0)
    assert (report.verdict, report.condition) == ("blowup_guaranteed", "assuB_1")
    assert report.margin == pytest.approx(4.0)
    report = classify_1d(0.2, 0.2, 1.0, None, 1.0, 0.0, 0.0)
    assert (report.verdict, report.condition) == ("blowup_guaranteed", "assuB_2")
    assert report.margin == pytest.approx(0.5 - math.sqrt(0.05))
    # data the floor phi_minus = 1 certifies smooth stay indeterminate without it
    assert classify_1d(0.2, 0.2, 1.0, 1.0, 1.0, 0.3, 0.3).verdict == "smooth_guaranteed"
    report = classify_1d(0.2, 0.2, 1.0, None, 1.0, 0.3, 0.3)
    assert (report.verdict, report.condition) == ("indeterminate", "none")
    assert report.margin == pytest.approx(0.5 - math.sqrt(0.05) - 0.3)
    # a <= 0 without a floor: assuB_3 needs phi_minus, so nothing fires
    report = classify_1d(-1.0, 0.0, 1.0, None, 1.0, -5.0, -5.0)
    assert (report.verdict, report.margin) == ("indeterminate", -1.25)


def test_classify_rejects_bad_bounds():
    with pytest.raises(ValueError):
        classify_1d(1.0, 0.5, 1.0, 1.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        classify_1d(0.0, 0.0, 1.0, 2.0, 1.0, 0.0, 0.0)


# --- blow-up detection on synthetic series ---


def test_detect_blowup_hyperbolic_series():
    t_end = 2.0
    times = np.linspace(0.0, t_end - 1e-7, 4001)
    vals = -1.0 / (t_end - times)
    bracket = detect_blowup(times, vals)
    assert bracket is not None
    crossing = t_end - 1e-6
    assert bracket[0] <= crossing <= bracket[1]


def test_detect_blowup_none_for_increasing_series():
    times = np.linspace(0.0, 10.0, 101)
    assert detect_blowup(times, times - 5.0) is None


def test_detect_blowup_first_sample_below():
    assert detect_blowup([0.0, 1.0], [-2e6, -3e6]) == (0.0, 0.0)


def test_detect_blowup_nonfinite_counts_as_crossing():
    bracket = detect_blowup([0.0, 1.0, 2.0], [-1.0, -2.0, math.nan])
    assert bracket == (1.0, 2.0)


def test_detect_blowup_empty_and_mismatched_series():
    assert detect_blowup([], []) is None
    with pytest.raises(ValueError, match="equal-length"):
        detect_blowup([0.0, 1.0], [-1.0])


def test_smooth_lower_root_needs_a_real_root():
    # (m0 phi)^2 / 4 = 0.25 < c = 1
    with pytest.raises(ValueError, match="no real fixed point"):
        smooth_lower_root(1.0, 1.0, 1.0)


def test_detect_blowup_threshold_validation():
    with pytest.raises(ValueError):
        detect_blowup([0.0, 1.0], [0.0, -1.0], threshold=1.0)
