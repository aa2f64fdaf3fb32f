"""N-agent alignment dynamics with external potential forcing.

Each agent carries a position x_i, a velocity u_i and a static quadrature
mass m_i > 0.  The equations of motion are

    dx_i/dt = u_i
    du_i/dt = sum_j m_j phi(|x_i - x_j|) (u_j - u_i) - grad U(x_i)

with a mass-weighted coupling: the ensemble is then the exact Lagrangian
quadrature of the hydrodynamic convolution phi*(rho u) - u (phi*rho) with
total mass sum(m).  Equal weights m_j = m0/N recover the plain arithmetic
average.  The vanishing i = j term is kept in the sums (it contributes
exactly zero).

The pairwise sums visit each pair i <= j once, in row blocks against the
columns from their first row on.  A ``PairPlan`` lays out and runs the whole
pass: each block's views of one two-buffer pool per process, the coordinate
differences as rank-2 GEMMs, the sum of their squares, where the kernel is
evaluated once, and ``add_block``, which adds the block's BLAS product with
[m, m*u] (or m) to its rows and its transpose's to the rows below.  Each
right-hand side keeps its plan, so the buffers (the stacked [m, m*u], the
GEMM factors, the outputs and the pool's views) are laid out once.
``diagnostics.pair_scan`` sizes its candidate pairs' blocks by the same rule
(``block_rows``), one stacked GEMM per block.  No
N x N array is built, and every product stays on one OpenBLAS thread, so
runs give the same bytes whatever OPENBLAS_NUM_THREADS is (a test compares
1 and 2 threads at the config cap N = 2048).

``Ensemble`` is the one state record of every solver mode: particles
carry (x, u), 1D characteristics add the threshold variable e and the
density value rho (x and u are then (N, 1)), and 2D characteristics add
the velocity gradient grad_u.  The evolved arrays are packed: each is a
view of a segment of one flat float64 vector, in that order.  One table,
``_STORED_AXES``, names the arrays stored in another axis order than they
are shown in: grad_u is stored component-major, (2, 2, N), and shown as
(N, 2, 2).  A state's attributes show each array; a right-hand side's
stage views are as stored, so each entry of the 2D stage's 2x2 algebra is
one contiguous row of N characteristics.

``_rk4_core`` is the one time stepper: classical fixed-step RK4 on the
flat vector.  The mode's right-hand side writes each derivative into views
of a stage buffer, and each stage is two in-place operations on flat
vectors.  ``advance_rk4`` (under every ``step_*``) is the core under its
own np.errstate, plus the new Ensemble; ``runner.run``'s loop calls the
core on the flat vector under one np.errstate per run, and builds an
Ensemble only for a frame.  Each mode builds its right-hand side from the
masses, kernel and potential (``_step_rhs_u`` here, ``_step_rhs_1d``,
``_step_rhs_2d``), each term from its one builder: ``alignment_plan``
(a constant kernel's O(N) form or a decaying kernel's ``PairPlan``),
``potentials.gradient`` and ``potentials.hessian_diag``.  So the four
stages of a constant-kernel step run only arithmetic.  The buffers
(``_Scratch``) are made with an Ensemble and passed on to the states
stepped from it, with the last right-hand side built, which a step reuses
while it gets the same masses, kernel and potential objects; a step
allocates only the new vector and the pass's small temporaries.
The new vector is screened in one pass against bound vectors: a value that
turns non-finite or leaves its cap (STATE_CAP, E_BLOWUP_CAP for e, none for
the density), or a negative density, raises BlowupSignal with the
bracketing time interval instead of propagating NaNs; only then are the
arrays walked one by one to name the reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .kernels import ConstantKernel, Kernel, kernel_eval_sq
# grad_at is unused here but stays imported: the benchmark's tracer rebinds it.
from .potentials import Potential, grad_at, gradient  # noqa: F401

__all__ = [
    "STATE_CAP",
    "E_BLOWUP_CAP",
    "BlowupSignal",
    "Ensemble",
    "Means",
    "advance_rk4",
    "step_rk4",
    "means",
    "recenter",
    "pairwise_phi_weights",
    "conv_phi",
    "alignment_plan",
    "alignment_force",
    "product_rows", "block_rows", "PairPlan", "add_block", "alignment_sums",
]

# any |x|, |u| or |grad_u| beyond this (or a non-finite value) is treated as blow-up
STATE_CAP = 1.0e9
# |e| beyond this is reported as blow-up; chosen far below the state cap
# so the threshold crossing is observed before RK4 values overflow
E_BLOWUP_CAP = 1.0e6
# the arrays a state can carry that the time stepper evolves, in this order
_EVOLVED = ("x", "u", "e", "rho", "grad_u")
# the evolved arrays stored in another axis order than they are shown in, each with its stored order
# as a permutation of the shown axes: grad_u's (N, 2, 2) is stored component-major, (2, 2, N)
_STORED_AXES = {"grad_u": (1, 2, 0)}
# the largest |value| an evolved array may reach before a step counts as a
# blow-up (STATE_CAP for the others); the density only has to stay finite,
# since it grows without bound while a flock contracts
_CAPS = {"e": E_BLOWUP_CAP, "rho": np.finfo(float).max}


class BlowupSignal(RuntimeError):
    """Raised when the integration leaves the trusted numerical range.

    ``t_lo`` and ``t_hi`` bracket the step in which the state went bad.
    """

    def __init__(self, t_lo: float, t_hi: float, reason: str):
        super().__init__(f"blow-up detected in t = [{t_lo:.6g}, {t_hi:.6g}]: {reason}")
        self.t_lo = t_lo
        self.t_hi = t_hi
        self.reason = reason


@dataclass
class Ensemble:
    """Weighted agent or characteristic state in dimension d.

    x and u are (N, d) and m is (N,).  1D characteristics also carry e and
    rho, each (N,), with d = 1; 2D characteristics carry grad_u, (N, 2, 2).
    m is a read-only copy of the masses, each positive and finite.
    The evolved arrays are views of consecutive segments of one float64
    vector ``flat``, in the order x, u, e, rho, grad_u, each stored in its
    ``_STORED_AXES`` order: C-contiguous, except grad_u, which is stored
    (2, 2, N) and shown as its (N, 2, 2) transpose.  Write into them or
    build a new Ensemble: assigning another array to one raises, since the
    stepper reads ``flat``.  ``_scratch`` holds the RK4 driver's buffers,
    which the states stepped from this one share.
    """

    x: np.ndarray
    u: np.ndarray
    m: np.ndarray
    t: float = 0.0
    e: Optional[np.ndarray] = None
    rho: Optional[np.ndarray] = None
    grad_u: Optional[np.ndarray] = None
    flat: np.ndarray = field(init=False, repr=False, compare=False)
    _scratch: "_Scratch" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.x = np.atleast_2d(np.asarray(self.x, dtype=float))
        self.u = np.atleast_2d(np.asarray(self.u, dtype=float))
        self.m = np.array(self.m, dtype=float)  # a copy: plans and kept right-hand sides read the masses once
        self.m.flags.writeable = False
        if self.x.shape != self.u.shape or self.x.ndim != 2:
            raise ValueError(f"x and u must both be (N, d), got {self.x.shape} and {self.u.shape}")
        n, d = self.x.shape
        if self.m.shape != (n,):
            raise ValueError(f"m must be (N,), got {self.m.shape}")
        if n < 1:
            raise ValueError("need at least one agent")
        if not np.all((self.m > 0.0) & (self.m < np.inf)):
            raise ValueError("all masses must be positive and finite")
        if (self.e is None) != (self.rho is None):
            raise ValueError("e and rho come together")
        if self.e is not None:
            self.e = np.asarray(self.e, dtype=float)
            self.rho = np.asarray(self.rho, dtype=float)
            if d != 1 or self.e.shape != (n,) or self.rho.shape != (n,):
                raise ValueError("e and rho need a 1D state and must be (N,)")
            if np.any(self.rho < 0.0):
                raise ValueError("density values must be nonnegative")
        if self.grad_u is not None:
            self.grad_u = np.asarray(self.grad_u, dtype=float)
            if self.grad_u.shape != (n, 2, 2) or d != 2:
                raise ValueError(f"grad_u must be (N, 2, 2) on a 2D state, got {self.grad_u.shape}")
        arrays = self.evolved()
        if not all(np.isfinite(a).all() for a in arrays.values()):
            raise ValueError("state values must be finite")
        scratch = _Scratch(arrays)
        flat = np.concatenate([_stored(name, a).ravel() for name, a in arrays.items()])
        self.__dict__.update(_views(flat, scratch.layout), flat=flat, _scratch=scratch)

    def __setattr__(self, name, value):
        if name in _EVOLVED and "flat" in self.__dict__:
            raise AttributeError(
                f"{name} is a view of the packed state; write into it or build a new Ensemble"
            )
        object.__setattr__(self, name, value)

    def __reduce__(self):
        # copies and pickles are built anew, since copying the arrays one by one would unpack them
        return Ensemble, (self.x, self.u, self.m, self.t, self.e, self.rho, self.grad_u)

    def evolved(self) -> dict:
        """The arrays the time stepper advances by name: x, u, then e and rho or grad_u."""
        return {k: self.__dict__[k] for k in _EVOLVED if self.__dict__[k] is not None}

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def total_mass(self) -> float:
        return float(self.m.sum())


@dataclass(frozen=True)
class Means:
    x_c: np.ndarray
    u_c: np.ndarray


# the pair passes' pool of two flat (rows, N) buffers, grown to the largest block seen; a process runs
# its passes one after another, sweep points too; flat, so a block's layout depends on N alone
_block_buffers = (np.empty(0), np.empty(0))


def product_rows(b: np.ndarray) -> int:
    """Rows of an N-column block whose product with b has at most 2**19 multiplies (2**18 for a vector).

    OpenBLAS 0.3.31 ran products of 1e6 multiplies (4.9e5 for a vector) on
    two threads, which moves their last bits; blocks this small stay on one.
    """
    return max(1, (2**19 if b.ndim > 1 else 2**18) // b.size)


def block_rows(b: np.ndarray) -> int:
    """Rows of a ``PairPlan``'s blocks for sums against b: min(128, ``product_rows(b)``)."""
    return min(128, product_rows(b))


def add_block(out: np.ndarray, w: np.ndarray, b: np.ndarray, lo: int, hi: int, sign: float = 1.0):
    """Add a ``PairPlan`` block w = W[lo:hi, lo:] to out = W @ b, for W = sign * W^T (sign 1 or -1)."""
    out[lo:hi] += np.matmul(w, b[lo:])
    if hi < len(out):
        out[hi:] += sign * np.matmul(w[:, hi - lo:].T, b[lo:hi])


class PairPlan:
    """A pass over the pairs i <= j, laid out once and run on every stage of a right-hand side.

    Its ``sums`` outputs sum against b = m (any (N,) or (N, c) array), or [m, m*u] when a stage gives
    u.  The layout is b with its m column, the GEMM factors [x_k, -1] and [1; x_k^T] with their
    constants, the outputs and the upper-triangle row blocks of ``block_rows(b)`` rows, each two
    (hi - lo, N - lo) views of the shared pool.  It is made again when x's shape changes or another
    pass regrew the pool.  Each stage zeroes the outputs as a one-shot pass does: a first block
    written straight in would turn 0.0 + (-0.0) into -0.0.
    """

    def __init__(self, m: np.ndarray, kernel: Kernel, sums: int = 1):
        self.m, self.kernel, self.sums, self.pool, self.shape = m, kernel, sums, None, None

    def run(self, x: np.ndarray, u: Optional[np.ndarray] = None):
        """(b, outputs, blocks) of a stage; blocks yields each row block's (lo, hi, r_sq, spare).

        r_sq = |x_i - x_j|^2 with the coordinates summed in the plan's order, spare the pool's second view.
        """
        global _block_buffers
        if self.pool is not _block_buffers or self.shape != x.shape:
            n, d = self.shape = x.shape
            self.b = self.m if u is None else np.repeat(self.m[:, None], 1 + d, axis=1)
            self.left, self.right = np.empty((d, n, 2)), np.ones((d, 2, n))
            self.left[:, :, 1] = -1.0
            self.order = (*range(0, d, 2), *range(1, d, 2))  # even ones first, as numpy einsum up to d = 3
            self.out = np.empty((self.sums, *self.b.shape))
            rows = block_rows(self.b)
            if _block_buffers[0].size < rows * n:
                _block_buffers = (np.empty(rows * n), np.empty(rows * n))
            self.pool, self.blocks = _block_buffers, []
            for lo in range(0, n, rows):
                hi = min(lo + rows, n)
                size = (hi - lo) * (n - lo)
                self.blocks.append((lo, hi, *(buf[:size].reshape(hi - lo, n - lo) for buf in self.pool)))
        if u is not None:
            np.multiply(self.b[:, :1], u, out=self.b[:, 1:])
        self.left[:, :, 0], self.right[:, 1] = x.T, x.T
        self.out.fill(0.0)
        return self.b, self.out, self._blocks()

    def difference(self, k: int, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
        """(x_i - x_j)_k for i in [lo, hi), j in [lo, N) of the stage's x, written into out.

        The rank-2 GEMM [x_k, -1] @ [1; x_k^T]: a subtraction's bits at a quarter of a broadcast's cost.
        """
        return np.matmul(self.left[k, lo:hi], self.right[k, :, lo:], out=out)

    def _blocks(self):
        for lo, hi, r_sq, spare in self.blocks:
            for k in self.order:
                dk = self.difference(k, lo, hi, spare if k else r_sq)
                np.multiply(dk, dk, out=dk)
                if k:
                    r_sq += dk
            yield lo, hi, r_sq, spare

    def kernel_sums(self, x: np.ndarray, u: Optional[np.ndarray] = None) -> np.ndarray:
        """sum_j phi(|x_i - x_j|) b_j, with phi evaluated once per pair i <= j."""
        b, (out,), blocks = self.run(x, u)
        for lo, hi, r_sq, _ in blocks:
            add_block(out, kernel_eval_sq(self.kernel, r_sq, out=r_sq), b, lo, hi)
        return out

    def __call__(self, x: np.ndarray, u: np.ndarray):
        """``alignment_force`` of a plan of the masses (``sums`` = 1)."""
        return alignment_sums(self.kernel_sums(x, u), u)


def alignment_sums(r: np.ndarray, u: np.ndarray):
    """(sum_j W_ij m_j (u_j - u_i), sum_j W_ij m_j) from r = W @ [m, m*u]."""
    return r[:, 1:] - u * r[:, :1], r[:, 0]


def pairwise_phi_weights(x: np.ndarray, m: np.ndarray, kernel: Kernel) -> np.ndarray:
    """Mass-weighted kernel matrix W[i, j] = m_j * phi(|x_i - x_j|), built whole."""
    return kernel_eval_sq(kernel, ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1)) * m[None, :]


def conv_phi(x: np.ndarray, m: np.ndarray, kernel: Kernel):
    """sum_j m_j phi(|x_i - x_j|), phi * rho's quadrature, by a one-shot ``PairPlan``; m0 phi if constant."""
    if isinstance(kernel, ConstantKernel):
        return kernel.value * m.sum()
    return PairPlan(m, kernel).kernel_sums(x)


def alignment_plan(m: np.ndarray, kernel: Kernel):
    """The alignment (x, u) -> (force, phi_conv) of the masses m, with the kernel's branch decided once.

    A constant kernel gives its O(N) form value * (sum_j m_j u_j - m0 u_i) with the scalar
    phi_conv = value * m0, as in ``conv_phi``; a decaying kernel gives its ``PairPlan``.
    """
    if isinstance(kernel, ConstantKernel):
        # 0-d arrays: numpy's cheapest scalar operand, with the bits of the floats
        k, m0 = np.array(kernel.value), np.array(m.sum())
        phi_conv = np.array(k * m0)
        return lambda x, u: (np.multiply(k, m @ u - m0 * u), phi_conv)
    return PairPlan(m, kernel)


def alignment_force(x: np.ndarray, u: np.ndarray, m: np.ndarray, kernel: Kernel, plan=None):
    """Velocity alignment term sum_j m_j phi(|x_i - x_j|)(u_j - u_i), with phi_conv = sum_j m_j phi_ij.

    ``plan`` is the caller's kept ``alignment_plan(m, kernel)``; a decaying kernel's phi_conv is
    then a view that the plan's next stage overwrites.
    """
    return (plan or alignment_plan(m, kernel))(x, u)


def _step_rhs_u(m, kernel, potential):
    """The particle right-hand side f(x, u, dx, du) -> phi*rho of a step; 1D characteristics add (e, rho).

    Each stage runs the kept ``alignment_plan`` through this module's ``alignment_force``, where
    the benchmark's tracer times it.
    """
    plan, grad = alignment_plan(m, kernel), gradient(potential)

    def f(x, u, dx, du):
        np.copyto(dx, u)
        force, phi_conv = alignment_force(x, u, m, kernel, plan)
        np.subtract(force, grad(x), out=du)
        return phi_conv

    return f


def _stored(name: str, arr: np.ndarray) -> np.ndarray:
    """The evolved array ``name``, shown as arr, as a view in its stored axis order."""
    axes = _STORED_AXES.get(name)
    return arr if axes is None else arr.transpose(axes)


def _views(flat: np.ndarray, layout, stored: bool = False) -> dict:
    """The evolved arrays by name, as views of the segments of flat: shown, or as stored."""
    views = {}
    for name, lo, hi, shape, shown in layout:
        view = flat[lo:hi].reshape(shape)
        views[name] = view if stored or shown is None else view.transpose(shown)
    return views


class _Scratch:
    """The RK4 driver's buffers for the evolved arrays of a state, given by name.

    ``layout`` lists each array's (name, start, stop, stored shape, axes)
    in the flat vector of P values, with axes the transpose that shows the
    stored view (None where it is shown as stored).  ``rows`` holds k1, k2,
    k3, k4 and the stage argument as one (5, P) array, ``views`` each row's
    views as stored, which a right-hand side receives, and ``lo`` and
    ``hi`` the bounds of the one-pass screen: |value| within the array's
    cap, and 0 <= rho.  ``coefficients`` holds the step's dt/2, dt and dt/6
    and ``rhs`` the right-hand side last built for it.  A state and the
    states stepped from it share one, so a thread steps one such chain at
    a time.
    """

    def __init__(self, arrays: dict):
        self.layout, size = [], 0
        for name, arr in arrays.items():
            axes = _STORED_AXES.get(name)
            shown = None if axes is None else tuple(np.argsort(axes).tolist())
            self.layout.append((name, size, size + arr.size, _stored(name, arr).shape, shown))
            size += arr.size
        self.rows = np.empty((5, size))
        self.views = [tuple(_views(row, self.layout, stored=True).values()) for row in self.rows]
        self.lo, self.hi = np.empty(size), np.empty(size)
        for name, lo, hi, *_ in self.layout:
            cap = _CAPS.get(name, STATE_CAP)
            self.lo[lo:hi], self.hi[lo:hi] = 0.0 if name == "rho" else -cap, cap
        self.dt, self.rhs_ids = None, None

    def coefficients(self, dt: float):
        """(dt/2, dt, dt/6) as 0-d arrays, numpy's cheapest scalar operand; made again when dt changes."""
        if dt != self.dt:
            self.dt, self.coefs = dt, tuple(np.array(c) for c in (0.5 * dt, dt, dt / 6.0))
        return self.coefs

    def rhs(self, build, m, kernel, potential):
        """``build(m, kernel, potential)``, built again when one of the four is not last time's object."""
        args = (build, m, kernel, potential)  # held with the result, so no new object can take their ids
        ids = tuple(map(id, args))
        if ids != self.rhs_ids:
            self.rhs_ids, self.rhs_args, self.rhs_f = ids, args, build(m, kernel, potential)
        return self.rhs_f


def _blowup_reason(arrays: dict) -> str:
    """Why new arrays failed the screen, found array by array in ``_EVOLVED`` order."""
    for name, arr in arrays.items():
        cap = _CAPS.get(name, STATE_CAP)
        if not np.abs(arr).max() <= cap:  # a NaN fails this comparison too
            return f"|{name}| exceeded {cap:.0e} or non-finite"
    # the density ODE preserves positivity; leaving it means the step
    # left the trusted regime
    return "density left the nonnegative range"


def _rk4_core(scratch: _Scratch, f, y: np.ndarray, t: float, dt: float) -> np.ndarray:
    """One classical RK4 step of size dt of the flat vector y at time t: the new vector y1.

    ``f(*arrays, *outs)`` writes the time derivatives of the evolved arrays
    into outs, arrays of the same shapes in the same order: the scratch
    rows' views, as stored.  y is copied into the stage row, so the first
    stage reads its views too and y is never written.  Each stage is two
    in-place operations on flat vectors, and the update keeps the bits of
    y + (dt/6)(k1 + 2(k2 + k3) + k4).  y1 is screened in one pass: each
    value must be finite, x, u and grad_u within STATE_CAP, e within
    E_BLOWUP_CAP and rho nonnegative, else BlowupSignal brackets the step
    [t, t + dt].  The caller holds the np.errstate that lets a blowing-up
    step overflow quietly.
    """
    k1, k2, k3, k4, stage = scratch.rows
    v1, v2, v3, v4, args = scratch.views
    half, full, sixth = scratch.coefficients(dt)
    np.copyto(stage, y)
    f(*args, *v1)
    np.multiply(k1, half, out=stage)
    stage += y
    f(*args, *v2)
    np.multiply(k2, half, out=stage)
    stage += y
    f(*args, *v3)
    np.multiply(k3, full, out=stage)
    stage += y
    f(*args, *v4)
    k2 += k3
    k2 += k2  # 2 (k2 + k3), exactly
    k2 += k1
    k2 += k4
    k2 *= sixth
    y1 = y + k2
    # a NaN fails both comparisons; count_nonzero is the cheapest reduction
    if np.count_nonzero(scratch.lo <= y1) + np.count_nonzero(y1 <= scratch.hi) < 2 * y1.size:
        raise BlowupSignal(t, t + dt, _blowup_reason(_views(y1, scratch.layout)))
    return y1


def _packed(state: Ensemble, flat: np.ndarray, t: float) -> Ensemble:
    """The state at time t whose evolved arrays are views of flat, assembled without validating it again."""
    out = object.__new__(Ensemble)
    out.__dict__.update(state.__dict__, t=t, flat=flat, **_views(flat, state._scratch.layout))
    return out


def _derivatives(state: Ensemble, f) -> tuple:
    """The time derivatives that a right-hand side f writes for the state, shown as its arrays are."""
    layout = state._scratch.layout
    out = np.empty_like(state.flat)
    f(*_views(state.flat, layout, stored=True).values(), *_views(out, layout, stored=True).values())
    return tuple(_views(out, layout).values())


def advance_rk4(state: Ensemble, f, dt: float) -> Ensemble:
    """One ``_rk4_core`` step of size dt > 0 of the arrays in ``state.evolved()``, under its own np.errstate.

    The new state owns its flat vector, and the input state is never written.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    with np.errstate(over="ignore", invalid="ignore"):
        y1 = _rk4_core(state._scratch, f, state.flat, state.t, dt)
    return _packed(state, y1, state.t + dt)


def step_rk4(ens: Ensemble, kernel: Kernel, potential: Potential, dt: float) -> Ensemble:
    """Advance the particle ensemble by one RK4 step of size dt > 0."""
    return advance_rk4(ens, ens._scratch.rhs(_step_rhs_u, ens.m, kernel, potential), dt)


def means(ens: Ensemble) -> Means:
    """Mass-weighted mean position and velocity."""
    m0 = ens.total_mass
    return Means(x_c=(ens.m @ ens.x) / m0, u_c=(ens.m @ ens.u) / m0)


def recenter(ens: Ensemble) -> Ensemble:
    """Shift to the frame with zero mean position and zero mean velocity.

    With a quadratic potential the shifted ensemble obeys the same
    equations, so simulate-then-recenter and recenter-then-simulate agree.
    """
    c = means(ens)
    return Ensemble(x=ens.x - c.x_c[None, :], u=ens.u - c.u_c[None, :], m=ens.m, t=ens.t)
