"""2D spectral dynamics: gradient transport, spectral scalars, thresholds."""

import math

import numpy as np
import pytest

from flocklab.dynamics import Ensemble, conv_phi
from flocklab.hydro2d import (
    BumpDensity2D,
    ShearRotationVelocity,
    SineShearVelocity,
    classify_2d_general,
    classify_2d_quadratic,
    init_characteristics_2d,
    rhs_2d,
    spectral_arrays,
    step_2d,
)
from flocklab.hydro2d import _pair_terms_2d
from flocklab.kernels import ConstantKernel, PowerLawKernel, kernel_eval, kernel_slope_over_r_sq
from flocklab.potentials import QuadraticPotential


# --- spectral scalars ---


def _spectral(grad_u, phi_conv):
    """(d, eta_S, omega, e) of one 2x2 gradient, as floats."""
    return tuple(float(v[0]) for v in spectral_arrays(np.asarray(grad_u)[None], np.array([phi_conv])))


def test_spectral_identity_matrix():
    assert _spectral(np.eye(2), 0.0) == (2.0, 0.0, 0.0, 2.0)


def test_spectral_pure_rotation():
    assert _spectral(np.array([[0.0, -1.0], [1.0, 0.0]]), 0.0) == (0.0, 0.0, 1.0, 0.0)


def test_spectral_shear_against_eigen_oracle():
    m = np.array([[1.0, 2.0], [0.0, -1.0]])
    d, eta_s, omega, _ = _spectral(m, 0.0)
    s = 0.5 * (m + m.T)
    eigs = np.linalg.eigvalsh(s)
    assert eta_s == pytest.approx(float(eigs[1] - eigs[0]), rel=1e-14)
    assert eta_s == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-14)
    assert omega == -1.0
    assert d == 0.0


def test_spectral_gap_matches_eigen_oracle_randomly():
    rng = np.random.default_rng(4)
    m = rng.uniform(-2.0, 2.0, (200, 2, 2))
    d, eta_s, _, e = spectral_arrays(m, np.full(200, 0.3))
    eigs = np.linalg.eigvalsh(0.5 * (m + m.transpose(0, 2, 1)))
    assert np.abs(eta_s - (eigs[:, 1] - eigs[:, 0])).max() <= 1e-12
    assert np.abs(e - (d + 0.3)).max() <= 1e-14


def test_trace_identity_random_matrices():
    rng = np.random.default_rng(6)
    m = rng.uniform(-1.0, 1.0, (1000, 2, 2))
    d, eta_s, omega, _ = spectral_arrays(m, np.zeros(1000))
    tr_m2 = np.einsum("nij,nji->n", m, m)
    identity = 0.5 * (d * d + eta_s * eta_s - 4.0 * omega * omega)
    assert np.abs(tr_m2 - identity).max() <= 1e-12


# --- initialization ---


def test_init_grid_and_jacobian():
    density = BumpDensity2D(1.0, 1.2)
    profile = SineShearVelocity(0.5, 0.25)
    state = init_characteristics_2d(density, profile, 8, ConstantKernel(3.0), m0=1.0)
    assert state.n == 64
    assert state.total_mass == pytest.approx(1.0, abs=1e-13)
    assert np.allclose(state.u, profile.value(state.x), atol=1e-15)
    # analytic Jacobian against finite differences of the profile
    h = 1e-6
    for k in range(2):
        shift = np.zeros(2)
        shift[k] = h
        fd = (profile.value(state.x + shift) - profile.value(state.x - shift)) / (2 * h)
        assert np.allclose(state.grad_u[:, :, k], fd, atol=1e-9)


def test_shear_rotation_profile_spectrum():
    profile = ShearRotationVelocity(shear=0.5, rotation=0.25)
    x = np.array([[0.3, -0.4]])
    jac = profile.jacobian(x)
    d, eta_s, omega, _ = spectral_arrays(jac, np.zeros(1))
    assert d[0] == 0.0
    assert eta_s[0] == pytest.approx(1.0)
    assert omega[0] == pytest.approx(0.25)


# --- right-hand side ---


def test_gradient_forcing_matches_brute_force():
    # R, and the whole power-law right-hand side -G^2 - (phi*rho) G + R - Hess U
    rng = np.random.default_rng(9)
    n = 12
    x = rng.uniform(-1.0, 1.0, (n, 2))
    u = rng.uniform(-1.0, 1.0, (n, 2))
    m = rng.uniform(0.1, 0.5, n)
    grad_u = rng.uniform(-1.0, 1.0, (n, 2, 2))
    kernel = PowerLawKernel(1.3, 0.7)
    _, _, got = _pair_terms_2d(x, u, m, kernel)
    expect = np.zeros((n, 2, 2))
    conv = np.zeros(n)
    for i in range(n):
        for j in range(n):
            z = x[i] - x[j]
            slope = float(kernel_slope_over_r_sq(kernel, float(z @ z)))
            conv[i] += m[j] * float(kernel_eval(kernel, float(np.linalg.norm(z))))
            for a in range(2):
                for l in range(2):
                    expect[i, a, l] += m[j] * slope * z[l] * (u[j, a] - u[i, a])
    assert np.allclose(got, expect, rtol=1e-12, atol=1e-14)
    a = 0.6
    for i in range(n):
        for p in range(2):
            for q in range(2):
                square = sum(grad_u[i, p, k] * grad_u[i, k, q] for k in range(2))
                expect[i, p, q] += -square - conv[i] * grad_u[i, p, q] - a * (p == q)
    state = Ensemble(x=x, u=u, grad_u=grad_u, m=m)
    _, _, d_grad = rhs_2d(state, kernel, QuadraticPotential(a))
    assert np.allclose(d_grad, expect, rtol=1e-12, atol=1e-14)


def test_gradient_forcing_zero_for_aligned_velocities():
    rng = np.random.default_rng(10)
    x = rng.uniform(-1, 1, (9, 2))
    u = np.tile([0.7, -0.1], (9, 1))
    _, _, r = _pair_terms_2d(x, u, np.full(9, 1.0 / 9), PowerLawKernel(1.0, 1.0))
    assert np.allclose(r, 0.0, atol=1e-15)


def test_rhs_constant_kernel_drops_forcing():
    rng = np.random.default_rng(11)
    n = 16
    state = Ensemble(
        x=rng.uniform(-1, 1, (n, 2)),
        u=rng.uniform(-1, 1, (n, 2)),
        grad_u=rng.uniform(-1, 1, (n, 2, 2)),
        m=np.full(n, 1.0 / n),
    )
    kernel = ConstantKernel(2.0)
    potential = QuadraticPotential(1.0)
    _, _, d_grad = rhs_2d(state, kernel, potential)
    phi_conv = conv_phi(state.x, state.m, kernel)
    expect = -np.einsum("nij,njk->nik", state.grad_u, state.grad_u)
    expect -= phi_conv[:, None, None] * state.grad_u
    expect -= np.eye(2)[None, :, :] * 1.0
    assert np.allclose(d_grad, expect, atol=1e-14)


def test_rhs_single_characteristic_zero_gradient():
    state = Ensemble(x=[[0.2, -0.1]], u=[[0.0, 0.0]], grad_u=np.zeros((1, 2, 2)), m=[1.0])
    _, _, d_grad = rhs_2d(state, ConstantKernel(1.0), QuadraticPotential(0.8))
    assert np.allclose(d_grad[0], -0.8 * np.eye(2), atol=1e-15)


# --- constant-kernel transport identities ---


def _short_run(n_side=6, steps=400, dt=1e-3):
    kernel = ConstantKernel(3.0)
    potential = QuadraticPotential(1.0)
    state = init_characteristics_2d(
        BumpDensity2D(1.0, 1.2), SineShearVelocity(0.5, 0.0), n_side, kernel, m0=1.0
    )
    history = [state]
    for _ in range(steps):
        state = step_2d(state, kernel, potential, dt)
        history.append(state)
    return history, kernel


def test_gap_and_vorticity_transport_residuals():
    # with a constant kernel and quadratic potential both eta_S and omega obey
    # y' + e y = 0 along characteristics; check the centered-difference residual
    history, kernel = _short_run()
    dt = 1e-3
    for idx in (100, 200, 300):
        prev, cur, nxt = history[idx - 1], history[idx], history[idx + 1]
        conv = conv_phi(cur.x, cur.m, kernel)
        _, eta_p, om_p, _ = spectral_arrays(prev.grad_u, conv)
        _, eta_c, om_c, e_c = spectral_arrays(cur.grad_u, conv)
        _, eta_n, om_n, _ = spectral_arrays(nxt.grad_u, conv)
        eta_res = (eta_n - eta_p) / (2 * dt) + e_c * eta_c
        om_res = (om_n - om_p) / (2 * dt) + e_c * om_c
        assert np.abs(eta_res).max() < 5e-5
        assert np.abs(om_res).max() < 5e-5


def test_e_equation_residual_along_trajectory():
    # e = tr(grad_u) + phi*rho obeys
    # e' = (4 omega^2 + (phi*rho)^2 - eta_S^2 - e^2 - 2 tr Hess U) / 2
    # exactly along the quadrature dynamics; centered differences are O(dt^2)
    history, kernel = _short_run()
    dt = 1e-3
    a = 1.0
    for idx in (100, 200, 300):
        prev, cur, nxt = history[idx - 1], history[idx], history[idx + 1]
        e_prev = _e_values(prev, kernel)
        e_next = _e_values(nxt, kernel)
        conv = conv_phi(cur.x, cur.m, kernel)
        _, eta, omega, e_cur = spectral_arrays(cur.grad_u, conv)
        lhs = (e_next - e_prev) / (2.0 * dt)
        rhs_val = 0.5 * (4 * omega**2 + conv**2 - eta**2 - e_cur**2 - 2.0 * (2.0 * a))
        assert np.abs(lhs - rhs_val).max() < 5e-5


def _e_values(state, kernel):
    conv = conv_phi(state.x, state.m, kernel)
    return spectral_arrays(state.grad_u, conv)[3]


def test_gap_decay_bounded_by_integrated_e():
    history, kernel = _short_run(steps=600)
    dt = 1e-3
    conv0 = conv_phi(history[0].x, history[0].m, kernel)
    _, eta0, _, _ = spectral_arrays(history[0].grad_u, conv0)
    min_e = []
    for state in history:
        conv = conv_phi(state.x, state.m, kernel)
        _, _, _, e = spectral_arrays(state.grad_u, conv)
        min_e.append(float(e.min()))
        assert e.min() > 0.0
    integral = np.cumsum(np.asarray(min_e[:-1]) + np.asarray(min_e[1:])) * 0.5 * dt
    for k, state in enumerate(history[1:], start=1):
        conv = conv_phi(state.x, state.m, kernel)
        _, eta, _, _ = spectral_arrays(state.grad_u, conv)
        bound = float(eta0.max()) * math.exp(-integral[k - 1])
        assert np.abs(eta).max() <= bound + 1e-6


def test_vorticity_sign_preserved_per_characteristic():
    kernel = ConstantKernel(3.0)
    state = init_characteristics_2d(
        BumpDensity2D(1.0, 1.2), SineShearVelocity(0.5, 0.0), 6, kernel, m0=1.0
    )
    conv = conv_phi(state.x, state.m, kernel)
    _, _, omega0, _ = spectral_arrays(state.grad_u, conv)
    sign0 = np.sign(omega0)
    assert (sign0 > 0).any() and (sign0 < 0).any()
    for _ in range(500):
        state = step_2d(state, kernel, QuadraticPotential(1.0), 1e-3)
    _, _, omega, _ = spectral_arrays(state.grad_u, conv)
    mask = np.abs(omega0) > 1e-12
    assert np.all(np.sign(omega[mask]) == sign0[mask])


def test_gradient_consistency_with_neighbor_jacobian():
    # evolved per-characteristic gradient vs a least-squares reconstruction
    # from neighboring characteristics; first-order in the node spacing
    def max_error(n_side):
        kernel = ConstantKernel(3.0)
        state = init_characteristics_2d(
            BumpDensity2D(1.0, 1.2), SineShearVelocity(0.5, 0.0), n_side, kernel, m0=1.0
        )
        for _ in range(1000):
            state = step_2d(state, kernel, QuadraticPotential(1.0), 1e-3)
        return _jacobian_mismatch(state)

    err_coarse = max_error(8)
    err_fine = max_error(16)
    assert err_fine < 0.05
    assert err_coarse / err_fine > 1.5


def _jacobian_mismatch(state):
    from numpy.linalg import lstsq

    x, u = state.x, state.u
    n = x.shape[0]
    errs = []
    for i in range(n):
        d = x - x[i]
        dist = np.einsum("nd,nd->n", d, d)
        neighbors = np.argsort(dist)[1:9]
        a = d[neighbors]
        b = u[neighbors] - u[i]
        jac_t, *_ = lstsq(a, b, rcond=None)
        errs.append(np.abs(jac_t.T - state.grad_u[i]).max())
    return float(np.median(errs))


# --- threshold classification ---


def test_classify_quadratic_constant_kernel_collapses():
    report = classify_2d_quadratic(
        a=0.2, m0=1.0, phi_minus=1.0, phi_plus=1.0, dphi_inf=0.0,
        etaS0_max=0.0, deltaEinf0=123.0, e0_min=0.0,
    )
    assert report.verdict == "subcritical_quadratic"
    assert report.constants["C_star"] == 0.0
    assert report.margins["c1"] == pytest.approx(1.0 - 0.8)


def test_classify_quadratic_reference_constants():
    report = classify_2d_quadratic(
        a=1.0, m0=1.0, phi_minus=1.0, phi_plus=1.0, dphi_inf=0.5,
        etaS0_max=0.1, deltaEinf0=0.01, e0_min=0.2,
    )
    assert report.constants["lambda"] == pytest.approx(0.2)
    assert report.constants["C_inf"] == pytest.approx(60.0)
    assert report.constants["C_star"] == pytest.approx(64.0 / 0.2 * 0.5 * math.sqrt(60.0))


def test_classify_quadratic_negative_e_rejects():
    report = classify_2d_quadratic(
        a=0.1, m0=2.0, phi_minus=1.0, phi_plus=1.0, dphi_inf=0.0,
        etaS0_max=0.0, deltaEinf0=0.0, e0_min=-0.1,
    )
    assert report.verdict == "not_subcritical"
    assert report.margins["c1"] > 0.0


def test_classify_general_reference_case():
    report = classify_2d_general(
        A=1.0, a=1.0, m0=1.0, phi_minus=3.0, dphi_inf=0.0, u_max=5.0,
        etaS0_max=1.5, e0_min=1.2,
    )
    assert report.constants["C_max"] == pytest.approx(2.0)
    assert report.constants["C_A"] == pytest.approx(2.5)
    assert report.constants["etaS_upper"] == pytest.approx(2.0)
    assert report.constants["c2"] == pytest.approx(1.0)
    assert report.verdict == "subcritical_general"


def test_classify_general_budget_violation():
    report = classify_2d_general(
        A=2.0, a=1.0, m0=1.0, phi_minus=2.0, dphi_inf=0.1, u_max=10.0,
        etaS0_max=0.0, e0_min=5.0,
    )
    assert report.verdict == "not_subcritical"
    assert report.margins["Cmi"] < 0.0


def test_classify_general_strict_e_threshold():
    kwargs = dict(A=1.0, a=1.0, m0=1.0, phi_minus=3.0, dphi_inf=0.0, u_max=5.0, etaS0_max=2.0)
    at_bound = classify_2d_general(u_max=5.0, e0_min=1.0, **{k: v for k, v in kwargs.items() if k != "u_max"})
    assert at_bound.verdict == "not_subcritical"
    above = classify_2d_general(u_max=5.0, e0_min=1.0 + 1e-9, **{k: v for k, v in kwargs.items() if k != "u_max"})
    assert above.verdict == "subcritical_general"
    # the gap bound is non-strict
    assert above.margins["etaS_cond2"] == 0.0
