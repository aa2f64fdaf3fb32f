"""Agent dynamics: right-hand side, RK4 stepping, means, recentering."""

import os
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from flocklab import dynamics
from flocklab.dynamics import (
    BlowupSignal,
    Ensemble,
    PairPlan,
    conv_phi,
    means,
    pairwise_phi_weights,
    recenter,
    step_rk4,
)
from flocklab.dynamics import _step_rhs_u
from flocklab.hydro2d import _pair_terms_2d, _step_rhs_2d, step_2d
from flocklab.kernels import ConstantKernel, FloorClippedKernel, PowerLawKernel, kernel_bounds, kernel_eval
from flocklab.potentials import QuadraticPotential, ZeroPotential

from oracles import (
    dense_alignment_force,
    dense_conv_phi,
    dense_gradient_forcing,
    pairwise_attraction_du,
)


def _du(x, u, m, kernel, potential):
    """du/dt of the particle system: one stage of the step's right-hand side."""
    du = np.empty_like(u)
    _step_rhs_u(m, kernel, potential)(x, u, np.empty_like(u), du)
    return du


def _random_ensemble(rng, n, d, equal_mass=False):
    m = np.full(n, 1.0 / n) if equal_mass else rng.uniform(0.2, 1.0, n)
    return Ensemble(
        x=rng.uniform(-2.0, 2.0, (n, d)),
        u=rng.uniform(-1.5, 1.5, (n, d)),
        m=m,
    )


def test_single_agent_feels_only_potential():
    ens = Ensemble(x=[[0.7]], u=[[0.3]], m=[1.0])
    du = _du(ens.x, ens.u, ens.m, PowerLawKernel(1.0, 1.0), QuadraticPotential(2.0))
    assert du[0, 0] == pytest.approx(-2.0 * 0.7, abs=0)


def test_two_agent_hand_evaluation():
    ens = Ensemble(x=[[0.0], [0.0]], u=[[1.0], [-1.0]], m=[0.5, 0.5])
    du = _du(ens.x, ens.u, ens.m, ConstantKernel(2.0), ZeroPotential())
    assert du[0, 0] == pytest.approx(-2.0, abs=1e-15)
    assert du[1, 0] == pytest.approx(2.0, abs=1e-15)


def test_aligned_velocities_feel_no_alignment():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, (8, 2))
    u = np.tile([0.4, -0.2], (8, 1))
    ens = Ensemble(x=x, u=u, m=np.full(8, 0.125))
    du = _du(ens.x, ens.u, ens.m, PowerLawKernel(1.0, 0.5), ZeroPotential())
    assert np.allclose(du, 0.0, atol=1e-15)


def test_rhs_mass_weighted_quadrature():
    # du_i must equal sum_j m_j phi(|x_i-x_j|)(u_j-u_i) - grad U(x_i) verbatim,
    # and conv_phi sum_j m_j phi(|x_i-x_j|), on every kernel evaluation path;
    # phi is written out here, independently of the kernels module
    def phi(kernel, r):
        inner = getattr(kernel, "inner", kernel)
        return max(inner.c0 * (1.0 + r * r) ** -inner.beta, getattr(kernel, "alpha", 0.0))

    rng = np.random.default_rng(5)
    kernels = [
        PowerLawKernel(1.3, 1.0),
        PowerLawKernel(1.3, 0.5),
        PowerLawKernel(1.3, 0.8),
        FloorClippedKernel(PowerLawKernel(1.3, 0.8), 0.4),
    ]
    a = 0.9
    for kernel in kernels:
        for d in (1, 2, 3):
            for n in (12, 70):
                ens = _random_ensemble(rng, n, d)
                du = _du(ens.x, ens.u, ens.m, kernel, QuadraticPotential(a))
                conv = conv_phi(ens.x, ens.m, kernel)
                for i in range(ens.n):
                    acc = np.zeros(d)
                    conv_i = 0.0
                    for j in range(ens.n):
                        w = ens.m[j] * phi(kernel, float(np.linalg.norm(ens.x[i] - ens.x[j])))
                        acc += w * (ens.u[j] - ens.u[i])
                        conv_i += w
                    acc -= a * ens.x[i]
                    assert np.allclose(du[i], acc, rtol=1e-12, atol=1e-14)
                    assert conv[i] == pytest.approx(conv_i, rel=1e-13)
    # at N = 600 the products are taken in several row blocks
    kernel = kernels[-1]
    ens = _random_ensemble(rng, 600, 2)
    du = _du(ens.x, ens.u, ens.m, kernel, QuadraticPotential(a))
    r = np.linalg.norm(ens.x[:, None, :] - ens.x[None, :, :], axis=-1)
    w = np.maximum(1.3 * (1.0 + r * r) ** -0.8, 0.4) * ens.m[None, :]
    expected = np.einsum("ij,ijd->id", w, ens.u[None, :, :] - ens.u[:, None, :]) - a * ens.x
    assert np.allclose(du, expected, rtol=1e-12, atol=1e-14)
    assert np.allclose(conv_phi(ens.x, ens.m, kernel), w.sum(axis=1), rtol=1e-13, atol=0.0)


def test_energy_dissipation_identity_random_states():
    # d/dt E along the flow equals minus half the pairwise dissipation,
    # as an algebraic identity at any state (no time stepping involved)
    rng = np.random.default_rng(42)
    kernels = [ConstantKernel(1.3), PowerLawKernel(1.0, 1.0)]
    from flocklab.potentials import PerturbedQuadraticPotential, grad_at

    potentials = [QuadraticPotential(0.8), PerturbedQuadraticPotential(1.0, 0.3, 2.0)]
    count = 0
    for trial in range(25):
        for d in (1, 2):
            for kernel in kernels:
                for potential in potentials:
                    if count >= 100:
                        break
                    ens = _random_ensemble(rng, 10, d)
                    du = _du(ens.x, ens.u, ens.m, kernel, potential)
                    lhs = float(
                        ens.m @ np.einsum("nd,nd->n", ens.u, du)
                        + ens.m @ np.einsum("nd,nd->n", grad_at(potential, ens.x), ens.u)
                    )
                    rhs_val = 0.0
                    for i in range(ens.n):
                        for j in range(ens.n):
                            w = kernel_eval(kernel, float(np.linalg.norm(ens.x[i] - ens.x[j])))
                            rhs_val += (
                                ens.m[i] * ens.m[j] * w * float(np.sum((ens.u[i] - ens.u[j]) ** 2))
                            )
                    rhs_val *= -0.5
                    assert abs(lhs - rhs_val) <= 1e-12 * max(1.0, abs(rhs_val))
                    count += 1
    assert count == 100


def test_means_dynamics_is_exact_oscillator():
    # mass-weighted mean of du is -a x_c for any state: algebraic identity
    rng = np.random.default_rng(8)
    ens = _random_ensemble(rng, 20, 2)
    a = 1.7
    du = _du(ens.x, ens.u, ens.m, PowerLawKernel(1.0, 1.0), QuadraticPotential(a))
    c = means(ens)
    mean_du = (ens.m @ du) / ens.total_mass
    assert np.allclose(mean_du, -a * c.x_c, rtol=1e-12, atol=1e-14)


def test_step_rk4_harmonic_oscillator_closed_form():
    ens = Ensemble(x=[[1.0]], u=[[0.0]], m=[1.0])
    dt = 1e-3
    for _ in range(10_000):
        ens = step_rk4(ens, ConstantKernel(1.0), QuadraticPotential(1.0), dt)
    assert ens.x[0, 0] == pytest.approx(np.cos(10.0), abs=1e-8)
    assert ens.u[0, 0] == pytest.approx(-np.sin(10.0), abs=1e-8)


def test_step_rejects_nonpositive_dt():
    ens = Ensemble(x=[[0.0]], u=[[0.0]], m=[1.0])
    with pytest.raises(ValueError):
        step_rk4(ens, ConstantKernel(1.0), ZeroPotential(), 0.0)
    with pytest.raises(ValueError):
        step_rk4(ens, ConstantKernel(1.0), ZeroPotential(), -1e-3)


def test_momentum_conserved_without_potential():
    rng = np.random.default_rng(12)
    ens = _random_ensemble(rng, 16, 2)
    p0 = ens.m @ ens.u
    for _ in range(100):
        ens = step_rk4(ens, ConstantKernel(2.0), ZeroPotential(), 1e-3)
    assert np.allclose(ens.m @ ens.u, p0, atol=1e-12)


def test_rk4_fourth_order_convergence():
    # halving dt should shrink the end-state error by about 2^4
    def final_x(dt):
        ens = Ensemble(x=[[1.0]], u=[[0.0]], m=[1.0])
        for _ in range(int(round(2.0 / dt))):
            ens = step_rk4(ens, ConstantKernel(1.0), QuadraticPotential(1.0), dt)
        return ens.x[0, 0]

    exact = np.cos(2.0)
    err_coarse = abs(final_x(0.02) - exact)
    err_fine = abs(final_x(0.01) - exact)
    ratio = err_coarse / err_fine
    assert 10.0 < ratio < 25.0


def test_means_examples():
    ens = Ensemble(x=[[1.0], [-1.0]], u=[[1.0], [-1.0]], m=[0.5, 0.5])
    c = means(ens)
    assert np.array_equal(c.x_c, [0.0])
    assert np.array_equal(c.u_c, [0.0])
    single = Ensemble(x=[[0.3, 0.1]], u=[[2.0, -1.0]], m=[0.7])
    c = means(single)
    assert np.allclose(c.x_c, [0.3, 0.1], rtol=1e-15)
    assert np.allclose(c.u_c, [2.0, -1.0], rtol=1e-15)


def test_recenter_idempotent_and_shift_inverse():
    rng = np.random.default_rng(21)
    ens = _random_ensemble(rng, 10, 2)
    centered = recenter(ens)
    c = means(centered)
    assert np.all(np.abs(c.x_c) < 1e-14)
    assert np.all(np.abs(c.u_c) < 1e-14)
    again = recenter(centered)
    assert np.allclose(again.x, centered.x, atol=1e-14)
    shifted = Ensemble(x=centered.x + 3.0, u=centered.u - 1.5, m=centered.m)
    back = recenter(shifted)
    assert np.allclose(back.x, centered.x, atol=1e-12)
    assert np.allclose(back.u, centered.u, atol=1e-12)


def test_galilean_commutation_quadratic():
    # recentering commutes with the integrator when the potential is quadratic
    rng = np.random.default_rng(33)
    ens = _random_ensemble(rng, 16, 2, equal_mass=True)
    kernel = PowerLawKernel(1.0, 1.0)
    potential = QuadraticPotential(1.0)
    dt, n_steps = 1e-3, 10_000

    a = ens
    b = recenter(ens)
    for _ in range(n_steps):
        a = step_rk4(a, kernel, potential, dt)
        b = step_rk4(b, kernel, potential, dt)
    a_rec = recenter(a)
    assert np.abs(a_rec.x - b.x).max() <= 1e-8
    assert np.abs(a_rec.u - b.u).max() <= 1e-8


def test_pairwise_variant_equals_quadratic_on_centered_data():
    rng = np.random.default_rng(2)
    ens = recenter(_random_ensemble(rng, 14, 2))
    a = 1.3
    kernel = PowerLawKernel(1.0, 1.0)
    du_potential = _du(ens.x, ens.u, ens.m, kernel, QuadraticPotential(a))
    du_pairwise = pairwise_attraction_du(ens.x, ens.u, ens.m, partial(kernel_eval, kernel), a)
    assert np.allclose(du_potential, du_pairwise, atol=1e-12)


def test_pairwise_variant_single_agent_and_momentum():
    single = Ensemble(x=[[0.4]], u=[[0.2]], m=[1.0])
    du = pairwise_attraction_du(single.x, single.u, single.m, partial(kernel_eval, ConstantKernel(1.0)), 2.0)
    assert np.allclose(du, 0.0)
    rng = np.random.default_rng(9)
    ens = _random_ensemble(rng, 12, 2)
    du = pairwise_attraction_du(ens.x, ens.u, ens.m, partial(kernel_eval, PowerLawKernel(1.0, 0.5)), 1.1)
    assert np.allclose(ens.m @ du, 0.0, atol=1e-13)


def test_determinism_bitwise():
    def trajectory():
        rng = np.random.default_rng(77)
        ens = _random_ensemble(rng, 24, 2)
        for _ in range(200):
            ens = step_rk4(ens, PowerLawKernel(1.0, 1.0), QuadraticPotential(1.0), 1e-3)
        return ens

    a, b = trajectory(), trajectory()
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.u, b.u)


def test_masses_are_static_across_steps():
    rng = np.random.default_rng(50)
    ens = _random_ensemble(rng, 6, 1)
    total = ens.total_mass
    stepped = step_rk4(ens, ConstantKernel(1.0), ZeroPotential(), 1e-3)
    assert stepped.m is ens.m
    assert stepped.total_mass == total


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_masses_are_rejected_as_input(bad):
    # not accepted and then reported as a blow-up by the first step
    with pytest.raises(ValueError, match="positive and finite"):
        Ensemble(x=[[0.0], [1.0]], u=[[0.0], [1.0]], m=[bad, 1.0])


def test_masses_are_a_read_only_copy():
    # kept right-hand sides and pair-pass plans read the masses once, so they must not change in place
    source = np.array([0.5, 0.25])
    ens = Ensemble(x=[[0.0], [1.0]], u=[[0.0], [1.0]], m=source)
    source[0] = 2.0
    assert ens.m.tolist() == [0.5, 0.25]
    with pytest.raises(ValueError, match="read-only"):
        ens.m[0] = 2.0
    stepped = step_rk4(ens, PowerLawKernel(1.0, 1.0), QuadraticPotential(1.0), 0.01)
    assert not stepped.m.flags.writeable


def test_blowup_signal_on_overflow():
    ens = Ensemble(x=[[1.0e8]], u=[[0.0]], m=[1.0])
    with pytest.raises(BlowupSignal) as info:
        step_rk4(ens, ConstantKernel(1.0), QuadraticPotential(1.0e6), 1.0)
    assert info.value.t_lo == 0.0
    assert info.value.t_hi == 1.0


def test_ensemble_validation():
    with pytest.raises(ValueError):
        Ensemble(x=[[0.0]], u=[[0.0]], m=[0.0])
    with pytest.raises(ValueError):
        Ensemble(x=[[np.inf]], u=[[0.0]], m=[1.0])
    with pytest.raises(ValueError):
        Ensemble(x=[[0.0], [1.0]], u=[[0.0]], m=[1.0, 1.0])
    with pytest.raises(ValueError, match="e and rho"):
        Ensemble(x=[[0.0]], u=[[0.0]], m=[1.0], e=[0.5])
    with pytest.raises(ValueError, match="nonnegative"):
        Ensemble(x=[[0.0]], u=[[0.0]], m=[1.0], e=[0.5], rho=[-1.0])
    with pytest.raises(ValueError, match="grad_u"):
        Ensemble(x=[[0.0, 0.0]], u=[[0.0, 0.0]], m=[1.0], grad_u=np.zeros((1, 2)))
    with pytest.raises(ValueError, match=r"m must be \(N,\)"):
        Ensemble(x=[[0.0], [1.0]], u=[[0.0], [1.0]], m=[1.0])
    with pytest.raises(ValueError, match="at least one agent"):
        Ensemble(x=np.empty((0, 1)), u=np.empty((0, 1)), m=[])
    with pytest.raises(ValueError, match="need a 1D state"):
        Ensemble(x=[[0.0, 0.0]], u=[[0.0, 0.0]], m=[1.0], e=[0.5], rho=[1.0])


_PAIR_KERNELS = (
    PowerLawKernel(1.3, 0.5),
    PowerLawKernel(0.8, 1.0),
    PowerLawKernel(1.1, 0.7),
    ConstantKernel(0.6),
    FloorClippedKernel(PowerLawKernel(1.0, 0.7), 0.2),  # clips beyond r of about 3
)


def _assert_close(got, want, scale):
    # the blocked sums differ from the dense ones in summation order only
    assert np.abs(got - want).max() <= 1e-14 * scale


@pytest.mark.parametrize("n", [1, 2, 3, 127, 128, 129, 130, 700])
def test_pair_pass_matches_the_dense_sums(n):
    # every row block, its transposed share and the ragged last block, against
    # N x N kernel and gradient-weight matrices; the scales bound each sum's
    # terms: |phi| <= phi(0), |phi'(r)/r (x_i - x_j)| <= sup |phi'|, |u_j - u_i| <= 2 max |u|
    rng = np.random.default_rng(n)
    for d in (1, 2, 3):
        ens = _random_ensemble(rng, n, d)
        for kernel in _PAIR_KERNELS:
            phi_plus, dphi_inf = kernel_bounds(kernel)
            conv_scale = ens.total_mass * phi_plus
            force_scale = 2.0 * np.abs(ens.u).max() * conv_scale
            force, phi_conv = dynamics.alignment_force(ens.x, ens.u, ens.m, kernel)
            dense_force, dense_conv = dense_alignment_force(ens.x, ens.u, ens.m, kernel)
            _assert_close(force, dense_force, force_scale)
            _assert_close(phi_conv, dense_conv, conv_scale)
            _assert_close(conv_phi(ens.x, ens.m, kernel), dense_conv_phi(ens.x, ens.m, kernel), conv_scale)
            if d == 2:
                force, phi_conv, forcing = _pair_terms_2d(PairPlan(ens.m, kernel, 3), ens.x, ens.u)
                _assert_close(force, dense_force, force_scale)
                _assert_close(phi_conv, dense_conv, conv_scale)
                want = dense_gradient_forcing(ens.x, ens.u, ens.m, kernel)
                _assert_close(forcing, want, force_scale / phi_plus * dphi_inf)


def test_pair_pass_builds_no_pair_matrix(monkeypatch):
    n = 700
    rng = np.random.default_rng(5)
    ens = _random_ensemble(rng, n, 2)
    grad_u = rng.uniform(-1.0, 1.0, (n, 2, 2))
    kernel, potential = PowerLawKernel(1.0, 0.5), QuadraticPotential(1.0)
    monkeypatch.setattr(dynamics, "_block_buffers", (np.empty(0), np.empty(0)))
    # the right-hand side reads and writes grad_u as a stage stores it, (2, 2, N)
    stored = np.ascontiguousarray(grad_u.transpose(1, 2, 0))
    outs = (np.empty_like(ens.x), np.empty_like(ens.u), np.empty_like(stored))
    state_2d = Ensemble(x=ens.x, u=ens.u, m=ens.m, grad_u=grad_u)

    def passes():
        dynamics.alignment_force(ens.x, ens.u, ens.m, kernel)
        conv_phi(ens.x, ens.m, kernel)
        _step_rhs_2d(ens.m, kernel, potential)(ens.x, ens.u, stored, *outs)
        # planned steps: each keeps its right-hand side's plan, laid out in the same pool
        step_rk4(ens, kernel, potential, 0.01)
        step_2d(state_2d, kernel, potential, 0.01)

    passes()  # grows the block buffers, once per process
    assert sum(buf.nbytes for buf in dynamics._block_buffers) == 2 * 128 * n * 8
    tracemalloc.start()
    try:
        passes()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 // 4


_CAP_PASS = """
import hashlib, sys
import numpy as np
from flocklab.diagnostics import pair_scan
from flocklab.dynamics import Ensemble, PairPlan, alignment_force, conv_phi
from flocklab.hydro2d import _pair_terms_2d
from flocklab.dynamics import step_rk4
from flocklab.kernels import PowerLawKernel
from flocklab.potentials import QuadraticPotential
kernel = PowerLawKernel(1.0, 0.5)
digest = hashlib.sha256()
for n in (700, 2048):
    rng = np.random.default_rng(n)
    x, u, m = rng.normal(size=(n, 2)), rng.normal(size=(n, 2)), rng.uniform(0.1, 1.0, n)
    pair_terms = _pair_terms_2d(PairPlan(m, kernel, 3), x, u)
    for arr in (*alignment_force(x, u, m, kernel), conv_phi(x, m, kernel), *pair_terms):
        digest.update(np.ascontiguousarray(arr).tobytes())
    digest.update(step_rk4(Ensemble(x=x, u=u, m=m), kernel, QuadraticPotential(1.0), 0.01).flat.tobytes())
    for d in (1, 2, 3):  # the frame scan's products have rank 2d + 4; K beta < 1 keeps every agent
        xd, ud = (x, u) if d == 2 else rng.normal(size=(2, n, d))
        for cross in ((1.7, 0.9), (0.9, 0.9)):
            digest.update(np.array(pair_scan(Ensemble(x=xd, u=ud, m=m), 0.8, *cross)).tobytes())
sys.stdout.write(digest.hexdigest())
"""


def test_pair_pass_bytes_do_not_depend_on_blas_threads():
    # up to the config cap N = 2048 every block product stays on one BLAS
    # thread; at N = 700 unblocked products of these shapes differ under 2
    # threads.  The frame scan runs in d = 1, 2 and 3, once with every agent
    # kept, and a step runs its kept plan
    src = str(Path(dynamics.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = [
        subprocess.run(
            [sys.executable, "-c", _CAP_PASS],
            env={**os.environ, "PYTHONPATH": pythonpath, "OPENBLAS_NUM_THREADS": threads},
            check=True, capture_output=True, text=True,
        ).stdout
        for threads in ("1", "2")
    ]
    assert len(digests[0]) == 64 and digests[0] == digests[1]


def test_pairwise_weights_match_definition():
    rng = np.random.default_rng(10)
    x = rng.uniform(-1, 1, (7, 2))
    m = rng.uniform(0.1, 1.0, 7)
    kernel = PowerLawKernel(1.4, 0.6)
    w = pairwise_phi_weights(x, m, kernel)
    for i in range(7):
        for j in range(7):
            expect = m[j] * kernel_eval(kernel, float(np.linalg.norm(x[i] - x[j])))
            assert w[i, j] == pytest.approx(expect, rel=1e-14)
