"""Independent closed-form oracles shared by the test modules.

These deliberately avoid the package's code paths: the Riccati solution is
derived by hand from e' = -e(e - K) - A, the oscillator from x'' = -a x,
and the pairwise-attraction variant is summed over explicit pair arrays.
The dense frame functionals build the full N x N x d pair arrays, and the
dense pair sums the N x N kernel and gradient-weight matrices, that
``diagnostics.pair_scan`` and the blocked pass of ``dynamics.PairPlan``
visit one upper-triangle row block at a time; ``full_pair_scan`` is the
frame scan over every pair, before it kept only candidate agents, and the
``unplanned_*`` passes
are the blocked ones as they were before the plan.  ``reference_rk4`` is the
list-comprehension RK4 driver that the packed in-place driver replaced, and
the ``reference_rhs_*`` functions the allocating right-hand sides it called.
The ``stage_*`` functions are the in-place right-hand sides as they were
before each step decided its kernel, potential and constants once, and
``stage_step`` steps them with the package's driver.
``reference_agent_functionals`` computes E, E_k, P, V, F1_max and the means
one functional at a time, each with its own per-agent arrays, as they were
written before ``diagnostics.AgentPass`` shared them, and
``reference_means_errors`` is the means row's per-frame loop as it was
before the row was taken over all frames at once.
``reference_integrate`` is the runner's step loop as it was before it
marched the flat vector: one public ``step_*`` call and one Ensemble per
step, its t set to i * dt, and each frame built by ``runner._state_frame``.
``_evaluate_checks``, its four helpers and ``_fit_rates`` are the runner's
bound checks and rate fit as they were written before the one table of
``runner._check_rows``: each check built by hand with its own reduction.
The initial-data section keeps the per-dimension bump densities, the four
velocity profile classes, the two characteristic init functions and the
particle bump sampler as they were before ``hydro1d.BumpDensity``,
``VelocityProfile`` and ``midpoint_quadrature`` replaced them.
"""

import dataclasses
import math
from typing import Optional

import numpy as np

from flocklab import constants as consts
from flocklab.diagnostics import fit_rate
from flocklab.dynamics import (
    E_BLOWUP_CAP,
    STATE_CAP,
    BlowupSignal,
    Ensemble,
    advance_rk4,
    alignment_force,
    step_rk4,
    add_block,
    alignment_sums,
    block_rows,
    PairPlan,
    conv_phi,
    product_rows,
)
from flocklab.hydro1d import e_upper_bound, smooth_lower_root, step_1d
from flocklab.hydro2d import step_2d
from flocklab.kernels import (
    ConstantKernel,
    FloorClippedKernel,
    PowerLawKernel,
    kernel_eval,
    kernel_eval_sq,
    kernel_slope_over_r_sq,
)
from flocklab.potentials import (
    PerturbedQuadraticPotential,
    QuadraticPotential,
    ZeroPotential,
    grad_at,
    hess_diag_at,
    value_at,
)
from flocklab.runner import Analysis, BoundCheck, _state_frame


def riccati_exact(t, e0, K, A):
    """Closed form for the constant-coefficient e-equation."""
    disc = K * K / 4.0 - A
    mid = K / 2.0
    t = np.asarray(t, dtype=float)
    if disc > 0.0:
        gap = math.sqrt(disc)
        r_hi, r_lo = mid + gap, mid - gap
        if e0 == r_hi:
            return np.full_like(t, r_hi)
        w0 = (e0 - r_hi) / (e0 - r_lo)
        w = w0 * np.exp(-2.0 * gap * t)
        return (r_hi - r_lo * w) / (1.0 - w)
    if disc == 0.0:
        y0 = e0 - mid
        return mid + y0 / (1.0 + y0 * t)
    gamma = math.sqrt(-disc)
    theta0 = math.atan2(e0 - mid, gamma)
    return mid + gamma * np.tan(theta0 - gamma * t)


def riccati_blowup_time(e0, K, A):
    """Blow-up time of the oscillatory branch (A > K^2/4)."""
    gamma = math.sqrt(A - K * K / 4.0)
    return (math.atan2(e0 - K / 2.0, gamma) + math.pi / 2.0) / gamma


def oscillator_exact(t, x0, u0, a):
    """Solution of x' = u, u' = -a x componentwise for vector data."""
    omega = math.sqrt(a)
    x0 = np.asarray(x0, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    ct, st = math.cos(omega * t), math.sin(omega * t)
    return x0 * ct + u0 * (st / omega), -x0 * omega * st + u0 * ct


def lagrange_derivative(x, u):
    """Three-point derivative at interior nodes of a sorted nonuniform grid."""
    x0, x1, x2 = x[:-2], x[1:-1], x[2:]
    u0, u1, u2 = u[:-2], u[1:-1], u[2:]
    return (
        u0 * (x1 - x2) / ((x0 - x1) * (x0 - x2))
        + u1 * (2 * x1 - x0 - x2) / ((x1 - x0) * (x1 - x2))
        + u2 * (x1 - x0) / ((x2 - x0) * (x2 - x1))
    )


def pairwise_attraction_du(x, u, m, phi, a):
    """du of the variant with pairwise attraction instead of a potential.

    du_i = sum_j m_j phi(|x_i - x_j|) (u_j - u_i) - (a/m0) sum_j m_j (x_i - x_j),
    with ``phi`` a vectorized function of the distance.  On an ensemble with
    zero mean position this coincides exactly with the quadratic-potential
    right-hand side, and the total momentum is conserved for any data.
    """
    dx = x[:, None, :] - x[None, :, :]
    w = m[None, :] * phi(np.sqrt(np.einsum("ijd,ijd->ij", dx, dx)))
    alignment = np.einsum("ij,ijd->id", w, u[None, :, :] - u[:, None, :])
    return alignment - (a / m.sum()) * np.einsum("j,ijd->id", m, dx)


def _pairwise_sq_norms(z):
    diff = z[:, None, :] - z[None, :, :]
    return np.einsum("ijd,ijd->ij", diff, diff)


def dense_fluctuations(ens, a):
    """(deltaE_L2, deltaE_Linf) from the dense pair matrix |du|^2 + a |dx|^2."""
    pair = _pairwise_sq_norms(ens.u)
    if a != 0.0:
        pair = pair + a * _pairwise_sq_norms(ens.x)
    weighted = float(ens.m @ (pair @ ens.m))
    return weighted, float(pair.max())


def dense_particle_energy_support(ens, potential):
    """(P, D) with D from the dense matrix of squared distances."""
    per_particle = 0.5 * np.einsum("nd,nd->n", ens.u, ens.u) + value_at(potential, ens.x)
    d_sq = _pairwise_sq_norms(ens.x).max()
    return float(per_particle.max()), float(math.sqrt(d_sq))


def dense_pair_functional_f(ens, coupling, beta):
    """max over pairs of K/2 |dx|^2 + dx . du + beta/2 |du|^2 from dense N x N x d arrays."""
    dx = ens.x[:, None, :] - ens.x[None, :, :]
    du = ens.u[:, None, :] - ens.u[None, :, :]
    vals = 0.5 * coupling * np.einsum("ijd,ijd->ij", dx, dx)
    vals += np.einsum("ijd,ijd->ij", dx, du)
    vals += 0.5 * beta * np.einsum("ijd,ijd->ij", du, du)
    return float(vals.max())


def full_pair_scan(ens, a, coupling=None, beta=None):
    """``diagnostics.pair_scan`` as it was before its candidate pass: every pair i <= j, block by block.

    Each form is expanded about the heaviest agent k as the scan still does, and each row block of
    ``dynamics.block_rows`` rows (of the rank 2d + 4 factor) is one GEMM per form against the columns
    from the block's first row; deltaE_L2 sums each block's products with the masses (``add_block``).
    The scan's maxima must have these bits.
    """
    (n, d), m = ens.x.shape, ens.m
    f = [[0.0, 0.0], [0.0, 0.0]] if coupling is None else [[-coupling, -1.0], [-1.0, -beta]]
    forms = np.kron([[[-2.0 * a, 0.0], [0.0, -2.0]], [[-2.0, 0.0], [0.0, 0.0]], f], np.eye(d))
    left, right = np.empty((n, 2 * d + 4)), np.empty((3, 2 * d + 4, n))
    k = int(m.argmax())
    p, xu = left[:, 1 : 2 * d + 1], ens.flat[: 2 * n * d].reshape(2, n, d)
    np.subtract(xu, xu[:, k : k + 1], out=p.reshape(n, 2, d).transpose(1, 0, 2))
    left[:, 0] = 1.0
    right[:, 2 * d + 1 :] = -0.5 * np.eye(3)[:, :, None]
    r = np.matmul(forms, p.T, out=right[:, 1 : 2 * d + 1])
    s = np.vecdot(p, r.transpose(0, 2, 1), out=left[:, 2 * d + 1 :].T)
    np.multiply(s, -0.5, out=right[:, 0])
    sums = np.zeros(n)
    linf = f_max = -np.inf
    d_sq = float(np.ptp(ens.x)) ** 2 if d == 1 else -np.inf
    rows = block_rows(right[0])
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        blocks = [np.matmul(left[lo:hi, : 2 * d + 2 + f], right[f, : 2 * d + 2 + f, lo:]) for f in range(3)]
        linf = max(linf, blocks[0].max())
        add_block(sums, blocks[0], m, lo, hi)
        if d > 1:
            d_sq = max(d_sq, blocks[1].max())
        if coupling is not None:
            f_max = max(f_max, blocks[2].max())
    return float(m @ sums), float(linf), math.sqrt(d_sq), math.nan if coupling is None else float(f_max)


def _dense_alignment(w, u, m):
    r = w @ np.column_stack((m, m[:, None] * u))
    return r[:, 1:] - u * r[:, :1], r[:, 0]


def dense_alignment_force(x, u, m, kernel):
    """(sum_j m_j phi_ij (u_j - u_i), sum_j m_j phi_ij) from the whole N x N kernel matrix."""
    return _dense_alignment(kernel_eval_sq(kernel, _pairwise_sq_norms(x)), u, m)


def dense_dissipation(x, u, m, kernel):
    """-1/2 sum_ij m_i m_j phi_ij |u_i - u_j|^2 from the whole N x N kernel matrix."""
    return -0.5 * float(m @ (kernel_eval_sq(kernel, _pairwise_sq_norms(x)) * _pairwise_sq_norms(u)) @ m)


def dense_conv_phi(x, m, kernel):
    """sum_j m_j phi(|x_i - x_j|) from the whole N x N kernel matrix."""
    return kernel_eval_sq(kernel, _pairwise_sq_norms(x)) @ m


def _closed_form_slope(kernel, r_sq):
    """phi'(r)/r: -2 c0 beta (1 + r^2)^(-beta - 1) for a power law, 0 where the kernel is flat."""
    if isinstance(kernel, ConstantKernel):
        return np.zeros_like(r_sq)
    if isinstance(kernel, FloorClippedKernel):
        unclipped = kernel_eval_sq(kernel.inner, r_sq) > kernel.alpha
        return np.where(unclipped, _closed_form_slope(kernel.inner, r_sq), 0.0)
    return -2.0 * kernel.c0 * kernel.beta * np.power(1.0 + r_sq, -kernel.beta - 1.0)


def dense_gradient_forcing(x, u, m, kernel):
    """R[i, a, l] = sum_j m_j (phi'(r)/r)(x_i - x_j)_l (u_j - u_i)_a from whole N x N weight matrices."""
    slope = _closed_form_slope(kernel, _pairwise_sq_norms(x))
    dx = x[:, None, :] - x[None, :, :]
    return np.stack([_dense_alignment(slope * dx[:, :, l], u, m)[0] for l in range(x.shape[1])], axis=-1)


# The blocked pair passes as they were before ``PairPlan.difference`` gave each block its x and u
# differences, each from one rank-2 GEMM computed once.  The bodies are verbatim and keep their own
# block pool; ``_pair_terms_2d`` is held to them bit for bit.

_block_buffers = (np.empty(0), np.empty(0))


def reference_pair_blocks(x: np.ndarray, b: np.ndarray, spares: int = 1):
    """Upper-triangle row blocks (lo, hi, r_sq, spare, diffs) of the pair matrices, for sums against b.

    r_sq[i - lo, j - lo] = |x_i - x_j|^2 for i in [lo, hi), j in [lo, N), its coordinates summed even
    ones first (numpy einsum's order up to d = 3), and spare is a list of ``spares`` >= 1 free arrays
    of its shape, all overwritten by the next block; ``np.matmul(*diffs[k], out=...)`` gives
    (x_i - x_j)_k as the GEMM x_i * 1 + (-1) * x_j, the subtraction bit for bit.  Blocks of
    min(128, product_rows(b)) rows keep each product of ``add_block`` on one BLAS thread.
    """
    global _block_buffers
    n, d = x.shape
    rows = min(128, product_rows(b))
    if len(_block_buffers) <= spares or _block_buffers[0].size < rows * n:
        size = max(rows * n, _block_buffers[0].size)
        _block_buffers = tuple(np.empty(size) for _ in range(max(1 + spares, len(_block_buffers))))
    left, right = np.empty((d, n, 2)), np.ones((d, 2, n))  # left[k] = [x_k, -1], right[k] = [1; x_k^T]
    left[:, :, 0], left[:, :, 1], right[:, 1] = x.T, -1.0, x.T
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        size = (hi - lo) * (n - lo)
        r_sq, *spare = (buf[:size].reshape(hi - lo, n - lo) for buf in _block_buffers[: 1 + spares])
        diffs = [(left[k, lo:hi], right[k, :, lo:]) for k in range(d)]
        for k in (*range(0, d, 2), *range(1, d, 2)):
            dk = np.matmul(*diffs[k], out=spare[0] if k else r_sq)
            np.multiply(dk, dk, out=dk)
            if k:
                r_sq += dk
        yield lo, hi, r_sq, spare, diffs


def reference_pair_terms_2d(x, u, m, kernel):
    """Alignment force, phi*rho and gradient forcing R from one pass over the pairs i <= j.

    R[:, :, l] is the alignment form with the antisymmetric weights (phi'(r)/r) (x_i - x_j)_l.
    """
    b = np.column_stack((m, m[:, None] * u))
    sums = np.zeros((3, *b.shape))
    for lo, hi, r_sq, (spare,), diffs in reference_pair_blocks(x, b):
        phi = kernel_eval_sq(kernel, r_sq, out=spare)
        slope = kernel_slope_over_r_sq(kernel, r_sq, phi, out=r_sq)
        add_block(sums[0], phi, b, lo, hi)
        for l in range(2):
            weights = np.multiply(np.matmul(*diffs[l], out=spare), slope, out=spare)
            add_block(sums[1 + l], weights, b, lo, hi, sign=-1.0)
    force, phi_conv = alignment_sums(sums[0], u)
    return force, phi_conv, np.stack([alignment_sums(s, u)[0] for s in sums[1:]], axis=-1)


# The one-shot pair passes as they were before ``dynamics.PairPlan`` laid out each right-hand side's pass
# once: every call stacks [m, m*u], makes the GEMM factors and the zeroed outputs, and takes its block
# views again.  The bodies are verbatim, with their helpers; ``block_views`` lends the pool above, not
# the package's.  The plan, kept across stages or one-shot, is held to them bit for bit.


def block_views(n: int, b: np.ndarray, count: int):
    """Upper-triangle row blocks (lo, hi, views) of N x N pair matrices, for sums against b.

    Blocks of min(128, product_rows(b)) rows keep each product of ``add_block`` on one BLAS thread; views
    are ``count`` (hi - lo, N - lo) arrays of the shared pool, which the next block overwrites.
    """
    global _block_buffers
    rows = min(128, product_rows(b))
    if len(_block_buffers) < count or _block_buffers[0].size < rows * n:
        size = max(rows * n, _block_buffers[0].size)
        _block_buffers = tuple(np.empty(size) for _ in range(max(count, len(_block_buffers))))
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        size = (hi - lo) * (n - lo)
        yield lo, hi, [buf[:size].reshape(hi - lo, n - lo) for buf in _block_buffers[:count]]


def differences(v: np.ndarray):
    """diff(k, lo, hi, out) writes (v_i - v_j)_k for i in [lo, hi), j in [lo, N) into out.

    Each is the rank-2 GEMM [v_k, -1] @ [1; v_k^T]: a subtraction's bits at a quarter of a broadcast's cost.
    """
    left, right = np.empty((v.shape[1], len(v), 2)), np.ones((v.shape[1], 2, len(v)))
    left[:, :, 0], left[:, :, 1], right[:, 1] = v.T, -1.0, v.T
    return lambda k, lo, hi, out: np.matmul(left[k, lo:hi], right[k, :, lo:], out=out)


def even_first(d: int) -> tuple:
    """Coordinates 0..d-1, even ones first: numpy einsum's summation order up to d = 3."""
    return (*range(0, d, 2), *range(1, d, 2))


def pair_blocks(x: np.ndarray, b: np.ndarray):
    """``block_views``' blocks as (lo, hi, r_sq, spare, diff), for sums against b.

    r_sq[i - lo, j - lo] = |x_i - x_j|^2, its coordinates summed in ``even_first`` order, spare is
    the pool's second view, and diff is ``differences(x)``.
    """
    diff = differences(x)
    for lo, hi, (r_sq, spare) in block_views(len(x), b, 2):
        for k in even_first(x.shape[1]):
            dk = diff(k, lo, hi, spare if k else r_sq)
            np.multiply(dk, dk, out=dk)
            if k:
                r_sq += dk
        yield lo, hi, r_sq, spare, diff


def unplanned_kernel_sums(x: np.ndarray, b: np.ndarray, kernel) -> np.ndarray:
    """sum_j phi(|x_i - x_j|) b_j, with phi evaluated once per pair i <= j."""
    out = np.zeros(b.shape)
    for lo, hi, r_sq, _, _ in pair_blocks(x, b):
        add_block(out, kernel_eval_sq(kernel, r_sq, out=r_sq), b, lo, hi)
    return out


def unplanned_alignment_force(x: np.ndarray, u: np.ndarray, m: np.ndarray, kernel):
    """Velocity alignment term sum_j m_j phi(|x_i - x_j|)(u_j - u_i) and phi_conv, for a decaying kernel."""
    return alignment_sums(unplanned_kernel_sums(x, np.column_stack((m, m[:, None] * u)), kernel), u)


def unplanned_pair_terms_2d(x, u, m, kernel):
    """Alignment force, phi*rho and gradient forcing R from one pass over the pairs i <= j.

    R[:, :, l] is the alignment form with the antisymmetric weights (phi'(r)/r) (x_i - x_j)_l.
    """
    b = np.column_stack((m, m[:, None] * u))
    sums = np.zeros((3, *b.shape))
    for lo, hi, r_sq, spare, diff in pair_blocks(x, b):
        q = np.add(r_sq, 1.0, out=r_sq)  # 1 + r^2, which the power law reads twice
        phi = kernel_eval_sq(kernel, q, out=spare, shifted=True)
        slope = kernel_slope_over_r_sq(kernel, q, phi, out=q, shifted=True)
        add_block(sums[0], phi, b, lo, hi)
        for l in range(2):
            weights = np.multiply(diff(l, lo, hi, spare), slope, out=spare)
            add_block(sums[1 + l], weights, b, lo, hi, sign=-1.0)
    force, phi_conv = alignment_sums(sums[0], u)
    return force, phi_conv, np.stack([alignment_sums(s, u)[0] for s in sums[1:]], axis=-1)


def reference_rk4(state, f, dt):
    """One classical RK4 step of the arrays in ``state.evolved()``, ``f(*arrays)`` returning their derivatives.

    Each stage is a list comprehension over the arrays; the new arrays are
    screened one by one (|value| within its cap, then rho >= 0).
    """
    caps = {"e": E_BLOWUP_CAP, "rho": np.finfo(float).max}
    arrays = state.evolved()
    y = arrays.values()
    h = 0.5 * dt
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = f(*y)
        k2 = f(*[a + h * b for a, b in zip(y, k1)])
        k3 = f(*[a + h * b for a, b in zip(y, k2)])
        k4 = f(*[a + dt * b for a, b in zip(y, k3)])
        y1 = [
            a + (dt / 6.0) * (b1 + 2.0 * (b2 + b3) + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
        ]
    t_hi = state.t + dt
    new = dict(zip(arrays, y1))
    for name, arr in new.items():
        cap = caps.get(name, STATE_CAP)
        if not np.abs(arr).max() <= cap:
            raise BlowupSignal(state.t, t_hi, f"|{name}| exceeded {cap:.0e} or non-finite")
    if "rho" in new and new["rho"].min() < 0.0:
        raise BlowupSignal(state.t, t_hi, "density left the nonnegative range")
    return Ensemble(m=state.m, t=t_hi, **new)


def _full_hess(potential, x):
    return np.broadcast_to(hess_diag_at(potential, x), x.shape)


def reference_rhs_particles(m, kernel, potential):
    """f(x, u) -> (dx, du) of the particle system."""
    return lambda x, u: (u, alignment_force(x, u, m, kernel)[0] - grad_at(potential, x))


def reference_rhs_1d(m, kernel, potential):
    """f(x, u, e, rho) -> (dx, du, de, drho) along 1D characteristics."""

    def f(x, u, e, rho):
        force, phi_conv = alignment_force(x, u, m, kernel)
        shear = e - phi_conv
        return u, force - grad_at(potential, x), -e * shear - _full_hess(potential, x)[:, 0], -rho * shear

    return f


def reference_rhs_2d(m, kernel, potential):
    """f(x, u, grad_u) -> (dx, du, dgrad_u) along 2D characteristics, the 2x2 square stacked."""

    def f(x, u, grad_u):
        if isinstance(kernel, ConstantKernel):
            force, phi_conv = alignment_force(x, u, m, kernel)
        else:
            force, phi_conv, forcing = reference_pair_terms_2d(x, u, m, kernel)
        g00, g01, g10, g11 = grad_u[:, 0, 0], grad_u[:, 0, 1], grad_u[:, 1, 0], grad_u[:, 1, 1]
        square = [g00 * g00 + g01 * g10, g00 * g01 + g01 * g11, g10 * g00 + g11 * g10, g10 * g01 + g11 * g11]
        d_grad = -np.stack(square, axis=-1).reshape(grad_u.shape)
        d_grad -= np.reshape(phi_conv, (-1, 1, 1)) * grad_u
        if not isinstance(kernel, ConstantKernel):
            d_grad += forcing
        hess = _full_hess(potential, x)
        d_grad[:, 0, 0] -= hess[:, 0]
        d_grad[:, 1, 1] -= hess[:, 1]
        return u, force - grad_at(potential, x), d_grad

    return f


# The per-stage right-hand sides of each mode as they were before a step decided its kernel, potential
# and constants once.  The bodies are verbatim; the ``alignment_force``, ``grad_at`` and ``hess_diag_at``
# they call are the pre-change forms, as ``stage_alignment_force``, ``stage_grad_at`` and
# ``stage_hess_diag_at``, so this route shares only the pair pass (``PairPlan``, ``_pair_terms_2d``)
# and the RK4 driver with the package.


def stage_alignment_force(x, u, m, kernel):
    """``dynamics.alignment_force`` before the step decided its kernel: it sums m on every call."""
    if isinstance(kernel, ConstantKernel):
        m0 = m.sum()
        mu = m @ u
        return kernel.value * (mu[None, :] - m0 * u), kernel.value * m0
    return alignment_sums(PairPlan(np.column_stack((m, m[:, None] * u)), kernel).kernel_sums(x), u)


def stage_grad_at(potential, x):
    """``potentials.grad_at`` before ``potentials.gradient`` decided the family."""
    x = np.asarray(x, dtype=float)
    if isinstance(potential, ZeroPotential):
        return np.zeros_like(x)
    if isinstance(potential, QuadraticPotential):
        return potential.a * x
    if isinstance(potential, PerturbedQuadraticPotential):
        k = potential.kappa
        return potential.a * x + (potential.eps / k) * np.sin(k * x)
    raise TypeError(f"unknown potential {potential!r}")


def stage_hess_diag_at(potential, x):
    """``potentials.hess_diag_at`` before ``potentials.hessian_diag`` decided the family."""
    if isinstance(potential, ZeroPotential):
        return 0.0
    if isinstance(potential, QuadraticPotential):
        return potential.a
    if isinstance(potential, PerturbedQuadraticPotential):
        return potential.a + potential.eps * np.cos(potential.kappa * np.asarray(x, dtype=float))
    raise TypeError(f"unknown potential {potential!r}")


def stage_rhs_u(x, u, m, kernel, potential, out):
    """du/dt of the particle system, alignment minus grad U, written into out."""
    return np.subtract(stage_alignment_force(x, u, m, kernel)[0], stage_grad_at(potential, x), out=out)


def stage_rhs_arrays_1d(x, u, e, rho, m, kernel, potential, out):
    """Time derivative (dx, du, de, drho) along the characteristics, written into the four arrays of out."""
    dx, du, de, drho = out
    force, phi_conv = stage_alignment_force(x, u, m, kernel)
    dx[...] = u
    np.subtract(force, stage_grad_at(potential, x), out=du)
    # with -shear = phi*rho - e: de = -e shear - U''(x) and drho = -rho shear, bit for bit
    np.subtract(phi_conv, e, out=de)
    np.multiply(rho, de, out=drho)
    de *= e
    hess = stage_hess_diag_at(potential, x)  # a scalar when U'' is constant
    de -= hess[:, 0] if isinstance(hess, np.ndarray) else hess
    return out


def stage_rhs_arrays_2d(x, u, grad_u, m, kernel, potential, out):
    """Time derivative (dx, du, dgrad_u) along the characteristics, written into the three arrays of out."""
    dx, du, d_grad = out
    if isinstance(kernel, ConstantKernel):
        force, phi_conv = stage_alignment_force(x, u, m, kernel)
    else:
        force, phi_conv, forcing = reference_pair_terms_2d(x, u, m, kernel)
    dx[...] = u
    np.subtract(force, stage_grad_at(potential, x), out=du)
    for i in range(2):
        for j in range(2):  # [G^2]_ij = G_i0 G_0j + G_i1 G_1j
            entry = d_grad[:, i, j]
            np.multiply(grad_u[:, i, 0], grad_u[:, 0, j], out=entry)
            entry += grad_u[:, i, 1] * grad_u[:, 1, j]
    np.negative(d_grad, out=d_grad)
    # phi_conv is a scalar for a constant kernel
    d_grad -= (phi_conv[:, None, None] if isinstance(phi_conv, np.ndarray) else phi_conv) * grad_u
    if not isinstance(kernel, ConstantKernel):
        d_grad += forcing
    hess = stage_hess_diag_at(potential, x)  # a scalar when the Hessian is constant
    for k in range(2):
        d_grad[:, k, k] -= hess[:, k] if isinstance(hess, np.ndarray) else hess
    return out


def stage_step(state, kernel, potential, dt):
    """One ``advance_rk4`` step of the state's mode on the per-stage right-hand side above."""
    m = state.m
    if state.e is not None:
        def f(x, u, e, rho, *out):
            stage_rhs_arrays_1d(x, u, e, rho, m, kernel, potential, out)
    elif state.grad_u is not None:
        def f(x, u, g, *out):
            stage_rhs_arrays_2d(x, u, g, m, kernel, potential, out)
    else:
        def f(x, u, dx, du):
            dx[...] = u
            stage_rhs_u(x, u, m, kernel, potential, du)
    return advance_rk4(state, f, dt)


def _reference_value(potential, x):
    """U at each row of x, the way ``potentials.value_at`` wrote it before it took |x|^2 from a caller."""
    if isinstance(potential, ZeroPotential):
        return np.zeros(x.shape[0])
    quad = 0.5 * np.einsum("nd,nd->n", x, x)
    if isinstance(potential, QuadraticPotential):
        return potential.a * quad
    k = potential.kappa
    return potential.a * quad + potential.eps * ((1.0 - np.cos(k * x)).sum(axis=1) / (k * k))


def _reference_cross_energy(ens, a, lam):
    vals = 0.5 * np.einsum("nd,nd->n", ens.u, ens.u)
    vals += 0.5 * a * np.einsum("nd,nd->n", ens.x, ens.x)
    vals += 2.0 * lam * np.einsum("nd,nd->n", ens.u, ens.x)
    return vals


def reference_agent_functionals(ens, potential, a, lam, lam1):
    """(E, E_k, P, V, F1_max, x_c, u_c), each functional from its own per-agent arrays."""
    kinetic = 0.5 * float(ens.m @ np.einsum("nd,nd->n", ens.u, ens.u))
    total = kinetic + float(ens.m @ _reference_value(potential, ens.x))
    p = float((0.5 * np.einsum("nd,nd->n", ens.u, ens.u) + _reference_value(potential, ens.x)).max())
    v = float(ens.m @ _reference_cross_energy(ens, a, lam))
    f1 = float(_reference_cross_energy(ens, a, lam1).max())
    m0 = ens.total_mass
    return total, kinetic, p, v, f1, (ens.m @ ens.x) / m0, (ens.m @ ens.u) / m0


def reference_means_errors(cols: dict, a: float) -> np.ndarray:
    """The means row's excess, one frame at a time: the worst |x_c - x_ref| or |u_c - u_ref| per frame."""
    omega = math.sqrt(a)
    x0, u0 = cols["x_c"][0], cols["u_c"][0]
    errors = []
    for t, x_c, u_c in zip(cols["t"].tolist(), cols["x_c"], cols["u_c"]):
        ct, st = math.cos(omega * t), math.sin(omega * t)
        x_ref = x0 * ct + u0 * (st / omega)
        u_ref = -x0 * omega * st + u0 * ct
        errors.append(max(np.abs(x_c - x_ref).max(), np.abs(u_c - u_ref).max()))
    return np.asarray(errors)


def reference_integrate(cfg, an: Analysis):
    """(frames, blowup, extrema) of the run of cfg from ``an``, stepped one ``step_*`` call at a time."""
    step = {"particles": step_rk4, "hydro1d": step_1d, "hydro2d": step_2d}[cfg.mode]
    state, frames, blowup = an.state, [an.frame0], None
    track_e = state.e is not None
    if track_e:
        e_lo, e_hi = state.e.copy(), state.e.copy()
    try:
        for i in range(1, cfg.n_steps + 1):
            state = step(state, cfg.kernel, cfg.potential, cfg.dt)
            state.t = i * cfg.dt
            if track_e:
                np.minimum(e_lo, state.e, out=e_lo)
                np.maximum(e_hi, state.e, out=e_hi)
            if i % cfg.output_stride == 0 or i == cfg.n_steps:
                frames.append(_state_frame(cfg, state, an.a_lo, an.pair_f, an.v_rates))
    except BlowupSignal as sig:
        blowup = (sig.t_lo, sig.t_hi)
        if state.t > frames[-1].t:
            frames.append(_state_frame(cfg, state, an.a_lo, an.pair_f, an.v_rates))
    extrema = {"run_min_e": float(e_lo.min()), "run_max_e": float(e_hi.max())} if track_e else {}
    return frames, blowup, extrema


def reference_check_summary(summary, cfg, an: Analysis, frames):
    """A copy of a run's summary with its checks, notes and rate fits made again by the old code.

    A "classification skipped" note is written before the checks, so the copy keeps it.
    """
    notes = [note for note in summary.notes if note.startswith("classification skipped: ")]
    ref = dataclasses.replace(summary, bound_checks=[], rate_fits={}, notes=notes)
    _evaluate_checks(ref, cfg, an, frames, ref.threshold)
    _fit_rates(ref, cfg, frames)
    return ref


def _evaluate_checks(summary, cfg, an: Analysis, frames, threshold):
    checks = summary.bound_checks
    m0 = cfg.m0
    a_lo, a_hi, phi_plus = an.a_lo, an.a_hi, an.phi_plus
    times = np.asarray([f.t for f in frames])
    delta_l2 = np.asarray([f.delta_e_l2 for f in frames])
    delta_inf = np.asarray([f.delta_e_linf for f in frames])
    p_vals = np.asarray([f.particle_energy for f in frames])
    d_vals = np.asarray([f.diameter for f in frames])

    f0 = an.frame0
    confined = isinstance(cfg.potential, QuadraticPotential) and max(map(abs, (*f0.x_c, *f0.u_c))) <= 1e-9
    if confined:
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
        c_inf = consts.linf_constant(a, m0, phi_floor, phi_plus)
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
        r0 = an.report.r0
        if r0 is not None:
            checks.append(BoundCheck(
                name="particle_energy_bound",
                description=f"P(t) <= R0 = {r0:.6g}",
                tol=1e-9,
                max_violation=float((p_vals - r0).max()),
            ))
        else:
            summary.notes.append("particle energy bound skipped: no closed-form R0 for this kernel")
    if isinstance(cfg.potential, QuadraticPotential):
        a = cfg.potential.a
        checks.append(BoundCheck(
            name="support_energy_inequality",
            description="(a/8) D(t)^2 <= P(t)",
            tol=1e-9,
            max_violation=float((a / 8.0 * d_vals * d_vals - p_vals).max()),
        ))
        checks.append(_means_check(cfg, an.frame0, frames))

    if an.report.mu1 is not None:
        mu1, mu2, mu3 = an.report.mu1, an.report.mu2, an.report.mu3
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
    if isinstance(cfg.kernel, PowerLawKernel) and consts.pair_stable(a_lo, a_hi, m0 * phi_plus):
        check = _sqrt_trend_check(times, delta_l2, cfg.t_final)
        if check is not None:
            checks.append(check)
        else:
            summary.notes.append("sqrt-weighted trend skipped: fewer than 5 frames in the trailing half")

    verdict = getattr(threshold, "verdict", None)
    if cfg.mode == "hydro1d":
        _hydro1d_checks(summary, cfg, an, verdict)
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


def _hydro1d_checks(summary, cfg, an: Analysis, verdict):
    checks = summary.bound_checks
    m0 = cfg.m0
    if verdict == "smooth_guaranteed":
        # the classifier only certifies smoothness with a known floor
        root = smooth_lower_root(m0, an.phi_minus, an.a_hi)
        checks.append(BoundCheck(
            name="min_e_persistence",
            description=f"min e over the run stays above the lower fixed point {root:.6g}",
            tol=1e-6,
            max_violation=root - summary.extrema["run_min_e"],
        ))
        upper = e_upper_bound(an.frame0.max_e, m0, an.phi_plus, an.a_lo)
        checks.append(BoundCheck(
            name="max_e_bound",
            description=f"max e over the run stays below {upper:.6g}",
            tol=1e-6,
            max_violation=summary.extrema["run_max_e"] - upper,
        ))
    if verdict == "blowup_guaranteed":
        ok = summary.blowup is not None and summary.blowup[1] <= cfg.t_final
        checks.append(BoundCheck(
            name="blowup_detected",
            description="run predicted to blow up must cross the e-threshold before T",
            tol=0.0,
            max_violation=0.0 if ok else 1.0,
        ))


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


# --- initial data, one class per dimension and profile ---


@dataclasses.dataclass(frozen=True)
class ReferenceBump:
    """height * max(0, 1 - (x/L)^2)^2 of a 1D array x."""

    height: float = 1.0
    half_width: float = 1.0

    def value(self, x):
        s = np.clip(1.0 - (np.asarray(x, dtype=float) / self.half_width) ** 2, 0.0, None)
        return self.height * s * s


@dataclasses.dataclass(frozen=True)
class ReferenceBump2D:
    """height * b(x1) b(x2) of points x of shape (..., 2)."""

    height: float = 1.0
    half_width: float = 1.0

    def value(self, x):
        x = np.asarray(x, dtype=float)
        s = np.clip(1.0 - (x / self.half_width) ** 2, 0.0, None)
        b = s * s
        return self.height * b[..., 0] * b[..., 1]


@dataclasses.dataclass(frozen=True)
class LinearVelocity:
    """u(x) = slope * x."""

    slope: float

    def value(self, x):
        return self.slope * np.asarray(x, dtype=float)

    def deriv(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.slope)


@dataclasses.dataclass(frozen=True)
class SineVelocity:
    """u(x) = amplitude * sin(x)."""

    amplitude: float

    def value(self, x):
        return self.amplitude * np.sin(np.asarray(x, dtype=float))

    def deriv(self, x):
        return self.amplitude * np.cos(np.asarray(x, dtype=float))


@dataclasses.dataclass(frozen=True)
class ShearRotationVelocity:
    """u(x) = shear * (x2, x1) + rotation * (-x2, x1)."""

    shear: float
    rotation: float = 0.0

    def value(self, x):
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        out[..., 0] = self.shear * x[..., 1] - self.rotation * x[..., 1]
        out[..., 1] = self.shear * x[..., 0] + self.rotation * x[..., 0]
        return out

    def jacobian(self, x):
        jac = np.zeros((x.shape[0], 2, 2))
        jac[:, 0, 1] = self.shear - self.rotation
        jac[:, 1, 0] = self.shear + self.rotation
        return jac


@dataclasses.dataclass(frozen=True)
class SineShearVelocity:
    """u(x) = amplitude * (sin x2, sin x1) + rotation * (-x2, x1)."""

    amplitude: float
    rotation: float = 0.0

    def value(self, x):
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        out[..., 0] = self.amplitude * np.sin(x[..., 1]) - self.rotation * x[..., 1]
        out[..., 1] = self.amplitude * np.sin(x[..., 0]) + self.rotation * x[..., 0]
        return out

    def jacobian(self, x):
        jac = np.zeros((x.shape[0], 2, 2))
        jac[:, 0, 1] = self.amplitude * np.cos(x[:, 1]) - self.rotation
        jac[:, 1, 0] = self.amplitude * np.cos(x[:, 0]) + self.rotation
        return jac


def reference_velocity(velocities, d, amplitude, rotation=0.0):
    """The per-dimension profile class of a configuration's velocity word."""
    if d == 1:
        return {"linear": LinearVelocity, "sinusoidal": SineVelocity}[velocities](amplitude)
    return {"linear": ShearRotationVelocity, "sinusoidal": SineShearVelocity}[velocities](amplitude, rotation)


def reference_init_characteristics(density, velocity, n, kernel, m0=1.0):
    """1D midpoint quadrature: masses rho0(x_i) dx rescaled to m0, e = du0/dx + phi*rho."""
    half = density.half_width
    dx = 2.0 * half / n
    x = -half + (np.arange(n) + 0.5) * dx
    w = density.value(x) * dx
    m = w * (m0 / w.sum())
    e = velocity.deriv(x) + conv_phi(x[:, None], m, kernel)
    return Ensemble(x=x[:, None], u=velocity.value(x)[:, None], m=m, e=e, rho=m / dx)


def reference_init_characteristics_2d(density, velocity, n_side, m0=1.0):
    """2D midpoint tensor quadrature: masses (rho0 dx) dx rescaled to m0, analytic gradient."""
    half = density.half_width
    dx = 2.0 * half / n_side
    axis = -half + (np.arange(n_side) + 0.5) * dx
    g0, g1 = np.meshgrid(axis, axis, indexing="ij")
    x = np.column_stack([g0.ravel(), g1.ravel()])
    w = density.value(x) * dx * dx
    m = w * (m0 / w.sum())
    return Ensemble(x=x, u=velocity.value(x), m=m, grad_u=velocity.jacobian(x))


def reference_bump_particles(cfg):
    """Particles at bump-sampled positions with an analytic velocity profile and equal masses."""
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    init, n, d = cfg.initial, cfg.n, cfg.dim
    half_width = init.half_width
    x = np.empty((n, d))
    filled = 0
    while filled < n:
        cand = rng.uniform(-half_width, half_width, size=(n, d))
        s = np.clip(1.0 - (cand / half_width) ** 2, 0.0, None)
        accept = rng.uniform(0.0, 1.0, size=n) < (s * s).prod(axis=1)
        take = min(int(accept.sum()), n - filled)
        x[filled : filled + take] = cand[accept][:take]
        filled += take
    profile = reference_velocity(init.velocities, d, init.amplitude, init.rotation)
    u = profile.value(x[:, 0])[:, None] if d == 1 else profile.value(x)
    return Ensemble(x=x, u=u, m=np.full(n, cfg.m0 / n), t=0.0)
