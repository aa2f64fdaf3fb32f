"""Deterministic initial data from a configuration.

Random data uses the counter-based Philox generator keyed by the run seed,
with samples drawn in a fixed order, so a seed fully determines the data.
Characteristic modes never use randomness: positions are quadrature nodes
of the bump profile and velocities come from the analytic profile, whose
exact derivative initializes e (1D) and the velocity gradient (2D).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import ConfigError, ExperimentConfig
from .diagnostics import energy, fluctuations, particle_energy_support
from .dynamics import Ensemble, conv_phi, means, recenter
from .hydro1d import BumpDensity, LinearVelocity, SineVelocity, init_characteristics
from .hydro2d import (
    BumpDensity2D,
    ShearRotationVelocity,
    SineShearVelocity,
    init_characteristics_2d,
    spectral_arrays,
)
from .potentials import convexity_bounds

__all__ = ["InitialInfo", "build_state", "ensemble_view"]


@dataclass(frozen=True)
class InitialInfo:
    """Scalars of the initial data consumed by classifiers and bound checks."""

    energy0: float
    kinetic0: float
    particle_energy0: float
    diameter0: float
    delta_e0: float
    delta_e_inf0: float
    max_speed_position0: float
    x_c0: tuple
    u_c0: tuple
    e0_min: Optional[float] = None
    e0_max: Optional[float] = None
    eta_s0_max: Optional[float] = None
    omega0_max: Optional[float] = None


def ensemble_view(state: Ensemble) -> Ensemble:
    """Every mode's state is an Ensemble already; kept for the benchmark's span bindings."""
    return state


def build_state(cfg: ExperimentConfig) -> tuple[Ensemble, InitialInfo]:
    if cfg.mode == "particles":
        state = _build_particles(cfg)
    elif cfg.mode == "hydro1d":
        state = init_characteristics(
            BumpDensity(cfg.initial.bump_height, cfg.initial.half_width),
            _velocity_profile_1d(cfg),
            cfg.n,
            cfg.kernel,
            m0=cfg.m0,
        )
    else:
        state = init_characteristics_2d(
            BumpDensity2D(cfg.initial.bump_height, cfg.initial.half_width),
            _velocity_profile_2d(cfg),
            math.isqrt(cfg.n),
            cfg.kernel,
            m0=cfg.m0,
        )
    return state, _info(cfg, state)


def _velocity_profile_1d(cfg: ExperimentConfig):
    kind = cfg.initial.velocities
    if kind == "linear":
        return LinearVelocity(cfg.initial.amplitude)
    if kind == "sinusoidal":
        return SineVelocity(cfg.initial.amplitude)
    raise ConfigError(f"initial.velocities: {kind!r} has no analytic profile")


def _velocity_profile_2d(cfg: ExperimentConfig):
    kind = cfg.initial.velocities
    if kind == "linear":
        return ShearRotationVelocity(cfg.initial.amplitude, cfg.initial.rotation)
    if kind == "sinusoidal":
        return SineShearVelocity(cfg.initial.amplitude, cfg.initial.rotation)
    raise ConfigError(f"initial.velocities: {kind!r} has no analytic profile")


def _build_particles(cfg: ExperimentConfig) -> Ensemble:
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    init = cfg.initial
    n, d = cfg.n, cfg.dim

    if init.positions == "uniform":
        x = rng.uniform(-init.half_width, init.half_width, size=(n, d))
    else:
        x = _sample_bump(rng, n, d, init.half_width)

    if init.velocities == "random":
        u = rng.uniform(-init.amplitude, init.amplitude, size=(n, d))
    elif d == 1:
        u = _velocity_profile_1d(cfg).value(x[:, 0])[:, None]
    else:
        u = _velocity_profile_2d(cfg).value(x)

    if init.x_shift:
        x = x + np.asarray(init.x_shift)[None, :]
    if init.u_shift:
        u = u + np.asarray(init.u_shift)[None, :]

    ens = Ensemble(x=x, u=u, m=np.full(n, cfg.m0 / n), t=0.0)
    if init.recenter:
        ens = recenter(ens)
    return ens


def _sample_bump(rng, n: int, d: int, half_width: float) -> np.ndarray:
    """Rejection-sample the separable bump density on [-L, L]^d."""
    out = np.empty((n, d))
    filled = 0
    while filled < n:
        cand = rng.uniform(-half_width, half_width, size=(n, d))
        s = np.clip(1.0 - (cand / half_width) ** 2, 0.0, None)
        density = (s * s).prod(axis=1)
        accept = rng.uniform(0.0, 1.0, size=n) < density
        take = min(int(accept.sum()), n - filled)
        out[filled : filled + take] = cand[accept][:take]
        filled += take
    return out


def _info(cfg: ExperimentConfig, ens: Ensemble) -> InitialInfo:
    a_lo, _ = convexity_bounds(cfg.potential)
    e_total, e_kin = energy(ens, cfg.potential)
    delta_l2, delta_inf = fluctuations(ens, a_lo)
    p0, d0 = particle_energy_support(ens, cfg.potential)
    c = means(ens)
    speed = np.sqrt(np.einsum("nd,nd->n", ens.u, ens.u))
    radius = np.sqrt(np.einsum("nd,nd->n", ens.x, ens.x))
    info = dict(
        energy0=e_total,
        kinetic0=e_kin,
        particle_energy0=p0,
        diameter0=d0,
        delta_e0=delta_l2,
        delta_e_inf0=delta_inf,
        max_speed_position0=float((speed + radius).max()),
        x_c0=tuple(float(v) for v in c.x_c),
        u_c0=tuple(float(v) for v in c.u_c),
    )
    if ens.e is not None:
        info["e0_min"] = float(ens.e.min())
        info["e0_max"] = float(ens.e.max())
    elif ens.grad_u is not None:
        phi_conv = conv_phi(ens.x, ens.m, cfg.kernel)
        _, eta_s, omega, e = spectral_arrays(ens.grad_u, phi_conv)
        info["e0_min"] = float(e.min())
        info["e0_max"] = float(e.max())
        info["eta_s0_max"] = float(np.abs(eta_s).max())
        info["omega0_max"] = float(np.abs(omega).max())
    return InitialInfo(**info)
