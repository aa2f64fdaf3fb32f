"""Closed-form constants: reference values, scalings, the support-scale oracle."""

import math

import numpy as np
import pytest

from flocklab.constants import (
    constants_report,
    decay_rate,
    decay_rate_f1,
    gap_forcing_constant,
    linf_constant,
    linf_constant_conservative,
    linf_constant_via_f1,
    pair_beta,
    pair_rates,
    phi_min_from_support,
    reduction_constants,
    support_scale,
    velocity_bound,
)
from flocklab.kernels import ConstantKernel, PowerLawKernel, kernel_eval


def test_decay_rate_reference_value():
    assert decay_rate(1.0, 1.0, 1.0, 1.0) == pytest.approx(0.2, abs=1e-15)


def test_linf_constant_reference_value():
    assert linf_constant(1.0, 1.0, 1.0, 1.0) == pytest.approx(60.0, abs=1e-12)


def test_linf_conservative_takes_the_larger():
    args = (1.0, 1.0, 1.0, 1.0)
    c = linf_constant_conservative(*args)
    assert c == max(linf_constant(*args), linf_constant_via_f1(*args))


def test_f1_rate_formula_and_ordering_for_strong_potentials():
    # lam1 sits at half of lam only when the confinement is strong enough
    # (the denominators differ by 1/a - 1/4); both rates are reported and
    # the worst-pair prefactor uses the conservative combination
    assert decay_rate_f1(1.0, 1.0, 1.0, 1.0) == pytest.approx(0.25 * 1.0 / 3.25, rel=1e-14)
    rng = np.random.default_rng(3)
    for _ in range(60):
        a = float(rng.uniform(4.0, 10.0))
        m0 = float(rng.uniform(0.5, 2.0))
        lo = float(rng.uniform(0.05, 1.0))
        hi = lo * float(rng.uniform(1.0, 3.0))
        assert decay_rate_f1(a, m0, lo, hi) >= 0.5 * decay_rate(a, m0, lo, hi) - 1e-15


def test_decay_rate_monotone_in_floor_and_strength():
    floors = np.linspace(0.05, 1.0, 12)
    vals = [decay_rate(0.7, 1.0, float(f), 1.0) for f in floors]
    assert np.all(np.diff(vals) >= -1e-15)
    strengths = np.linspace(0.01, 5.0, 25)
    vals = [decay_rate(float(a), 1.0, 0.5, 1.0) for a in strengths]
    assert np.all(np.diff(vals) >= -1e-15)


def test_decay_rate_linear_scaling_for_weak_potentials():
    grid = [1e-3, 1e-2, 1e-1]
    lams = [decay_rate(a, 1.0, 1.0, 1.0) for a in grid]
    slope = np.polyfit(np.log(grid), np.log(lams), 1)[0]
    assert abs(slope - 1.0) <= 0.05


def test_pair_rates_reference_values():
    mu1, mu2, mu3 = pair_rates(1.0, 1.0, 2.0)
    assert mu1 == pytest.approx(4.0 - math.sqrt(13.0), rel=1e-14)
    assert mu2 > mu3 > 0.0
    assert pair_beta(1.0, 1.0, 2.0) == pytest.approx(4.0)


def test_pair_beta_reference():
    assert pair_beta(1.0, 1.5, 2.0) == pytest.approx(16.0 / 9.0, rel=1e-15)


def test_pair_rates_require_stability():
    with pytest.raises(ValueError):
        pair_rates(1.0, 1.5, 1.5)  # K = A/sqrt(a) exactly: not strict


def test_pair_rates_consistent_on_grid():
    rng = np.random.default_rng(5)
    count = 0
    while count < 60:
        a = float(rng.uniform(0.2, 3.0))
        big_a = a * float(rng.uniform(1.0, 2.0))
        coupling = big_a / math.sqrt(a) * float(rng.uniform(1.05, 4.0))
        mu1, mu2, mu3 = pair_rates(a, big_a, coupling)
        assert mu1 > 0.0
        assert mu2 > mu3 > 0.0
        # mu2, mu3 are the extreme generalized eigenvalues of the pair form
        beta = pair_beta(a, big_a, coupling)
        q = np.array([[coupling / 2.0, 0.5], [0.5, beta / 2.0]])
        n = np.array([[a, 0.0], [0.0, 1.0]])
        eigs = np.linalg.eigvals(np.linalg.solve(n, q))
        assert mu3 == pytest.approx(float(eigs.real.min()), rel=1e-10)
        assert mu2 == pytest.approx(float(eigs.real.max()), rel=1e-10)
        count += 1


def test_pair_form_dissipation_rate_is_sharp():
    # -mu1 is the best constant with (K beta - 1 - mu)(a - a mu) = A^2 beta^2 / 4
    a, big_a, coupling = 1.0, 1.5, 2.0
    mu1, _, _ = pair_rates(a, big_a, coupling)
    beta = pair_beta(a, big_a, coupling)
    lhs = (coupling * beta - 1.0 - mu1) * (a - a * mu1)
    assert lhs == pytest.approx(big_a**2 * beta**2 / 4.0, rel=1e-12)


# --- support scale: closed form against a quadrature oracle ---


def _r0_integral(kernel, a, p0, r0, n=400_001):
    r = np.linspace(p0, r0, n)
    return np.trapezoid(kernel_eval(kernel, np.sqrt(8.0 * r / a)), r)


@pytest.mark.parametrize(
    "kernel,a,m0,e0,p0",
    [
        (PowerLawKernel(1.0, 0.75), 1.0, 1.0, 1.0, 1.0),
        (PowerLawKernel(1.0, 1.0), 1.0, 1.0, 0.33, 0.9),
        (PowerLawKernel(2.0, 0.5), 0.7, 1.3, 0.5, 0.4),
        (ConstantKernel(2.0), 1.0, 1.0, 1.0, 0.5),
    ],
)
def test_support_scale_satisfies_defining_integral(kernel, a, m0, e0, p0):
    phi_plus = float(kernel_eval(kernel, 0.0))
    r0 = support_scale(a, m0, e0, p0, kernel)
    assert r0 > p0
    got = _r0_integral(kernel, a, p0, r0)
    assert got == pytest.approx(phi_plus * e0 / (4.0 * m0), rel=1e-5)


def test_support_scale_reference_value():
    # beta = 3/4, a = P0 = E0 = c0 = m0 = 1: R0 = ((sqrt(3) + 1/2)^4 - 1) / 8
    r0 = support_scale(1.0, 1.0, 1.0, 1.0, PowerLawKernel(1.0, 0.75))
    expect = ((math.sqrt(3.0) + 0.5) ** 4 - 1.0) / 8.0
    assert r0 == pytest.approx(expect, rel=1e-14)
    assert r0 == pytest.approx(2.978, abs=5e-4)


def test_support_scale_log_limit_continuous_at_one():
    # the beta = 1 formula is the limit of the beta < 1 formula
    at_one = support_scale(1.0, 1.0, 1.0, 1.0, PowerLawKernel(1.0, 1.0))
    near_one = support_scale(1.0, 1.0, 1.0, 1.0, PowerLawKernel(1.0, 1.0 - 1e-9))
    assert at_one == pytest.approx(near_one, rel=1e-6)


def test_support_scale_rejects_fast_decay():
    with pytest.raises(ValueError):
        support_scale(1.0, 1.0, 1.0, 1.0, PowerLawKernel(1.0, 1.5))


def test_phi_min_from_support():
    kernel = PowerLawKernel(1.0, 1.0)
    r0 = 2.0
    expect = kernel_eval(kernel, math.sqrt(16.0))
    assert phi_min_from_support(kernel, 1.0, r0) == pytest.approx(float(expect))


# --- uniform velocity bound constants ---


def test_reduction_constants_formulas():
    a, big_a, m0, lo, hi, e0 = 1.0, 1.5, 1.0, 0.5, 1.0, 2.0
    c, c0, c_f, c_plus = reduction_constants(a, big_a, m0, lo, hi, e0)
    assert c == pytest.approx(min(0.5 / (1.5 + 2.0 * 2.5), math.sqrt(1.0 / 18.0)))
    assert c0 == pytest.approx((2.0 / 0.5 + 4.0 * c) * 1.0 * 1.0 * 2.0)
    assert c_f == pytest.approx(2.0 * 1.5 * c0 / c)
    assert c_plus == pytest.approx(2.0 * math.sqrt(1.5) * 2.0)


def test_reduction_constants_floor_scaling():
    # C_F should blow up like 1/phi_minus^2 as the kernel floor vanishes
    vals = [reduction_constants(1.0, 1.0, 1.0, lo, 1.0, 1.0)[2] for lo in (1e-2, 1e-3, 1e-4)]
    ratios = [vals[1] / vals[0], vals[2] / vals[1]]
    for r in ratios:
        assert 50.0 < r < 200.0


def test_velocity_bound_uses_the_larger_branch():
    a, big_a, m0, lo, hi, e0 = 1.0, 1.5, 1.0, 0.5, 1.0, 2.0
    _, _, c_f, c_plus = reduction_constants(a, big_a, m0, lo, hi, e0)
    small_data = velocity_bound(a, big_a, m0, lo, hi, e0, 1e-6)
    assert small_data == pytest.approx(2.0 * (1.0 + 1.0) * math.sqrt(c_f))
    huge_data = velocity_bound(a, big_a, m0, lo, hi, e0, 1e6)
    assert huge_data == pytest.approx(c_plus * 1e6)


def test_gap_forcing_constant():
    assert gap_forcing_constant(0.2, 1.0, 0.5, 60.0) == pytest.approx(
        64.0 / 0.2 * 0.5 * math.sqrt(60.0)
    )
    assert gap_forcing_constant(0.2, 1.0, 0.0, 60.0) == 0.0


# --- assembled report ---


def test_constants_report_full_inputs():
    rep = constants_report(
        a=1.0, A=1.5, m0=1.0, phi_minus=1.0, phi_plus=1.0, dphi_inf=0.0,
        K=2.0, energy0=1.0, r0=support_scale(1.0, 1.0, 1.0, 1.0, PowerLawKernel(1.0, 0.75)),
        kernel=PowerLawKernel(1.0, 0.75), u_max=3.0,
    )
    assert rep.lam == pytest.approx(0.2)
    assert rep.mu1 is not None and rep.mu2 > rep.mu3 > 0.0
    assert rep.beta_cross == pytest.approx(16.0 / 9.0)
    assert rep.r0 == pytest.approx(2.978, abs=5e-4)
    assert rep.phi_minus_from_r0 == pytest.approx((1.0 + 8.0 * rep.r0) ** -0.75, rel=1e-14)
    assert rep.c_max == pytest.approx(3.0)  # 0 forcing slope: 2A
    d = rep.as_dict()
    assert d["lam"]["value"] == rep.lam
    assert "formula" in d["lam"]
    assert rep.to_json().startswith("{")


def test_constants_report_marks_inapplicable():
    rep = constants_report(
        a=1.0, A=2.0, m0=1.0, phi_minus=0.5, phi_plus=1.0, dphi_inf=0.1,
        K=1.0,  # below the stability threshold A/sqrt(a) = 2
    )
    assert rep.mu1 is None
    assert any("stability condition fails" in note for note in rep.notes)


def test_constants_report_without_floor():
    rep = constants_report(
        a=0.0, A=0.0, m0=1.0, phi_minus=None, phi_plus=1.0, dphi_inf=0.5
    )
    assert rep.lam is None
    assert rep.notes
    # given R0 the report gives R0 and phi(sqrt(8 R0 / a)), but whether R0
    # floors the kernel is the caller's decision, so without a floor from
    # the caller the floor-dependent constants stay empty
    kwargs = dict(a=1.0, A=1.0, m0=1.0, phi_minus=None, phi_plus=1.0, dphi_inf=0.5,
                  energy0=1.0, kernel=PowerLawKernel(1.0, 1.0))
    bare = constants_report(**kwargs)
    assert bare.r0 is None and bare.phi_minus_from_r0 is None
    rep = constants_report(**kwargs, r0=2.5)
    assert rep.r0 == 2.5 and rep.phi_minus_from_r0 > 0.0
    assert rep.lam is None
    assert rep.c_inf is None and rep.c is None and rep.c_star is None
    assert any(note.startswith("no a-priori kernel floor") for note in rep.notes)


def test_constants_pure_function_bitwise():
    kwargs = dict(a=0.7, A=0.9, m0=1.2, phi_minus=0.3, phi_plus=0.8, dphi_inf=0.2, K=3.0)
    a = constants_report(**kwargs)
    b = constants_report(**kwargs)
    assert a.as_dict() == b.as_dict()
