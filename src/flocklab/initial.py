"""Deterministic initial data from a configuration.

Random data uses the counter-based Philox generator keyed by the run seed,
with samples drawn in a fixed order, so a seed fully determines the data.
Characteristic modes never use randomness: positions are quadrature nodes
of the bump profile and velocities come from the analytic profile, whose
exact derivative initializes e (1D) and the velocity gradient (2D).

``build_state`` returns the state only; ``runner.analyze`` decides the
a-priori bounds from it and summarizes it as the t = 0 diagnostics frame.
"""

from __future__ import annotations

import math

import numpy as np

from .config import ExperimentConfig

# energy, fluctuations, particle_energy_support, conv_phi, means, spectral_arrays and
# convexity_bounds are unused here but stay imported: the benchmark's tracer rebinds them.
from .diagnostics import energy, fluctuations, particle_energy_support  # noqa: F401
from .dynamics import Ensemble, conv_phi, means, recenter  # noqa: F401
from .hydro1d import BumpDensity, VelocityProfile, init_characteristics
from .hydro2d import init_characteristics_2d, spectral_arrays  # noqa: F401
from .potentials import convexity_bounds  # noqa: F401

__all__ = ["build_state", "ensemble_view"]


def ensemble_view(state: Ensemble) -> Ensemble:
    """Every mode's state is an Ensemble already; kept for the benchmark's span bindings."""
    return state


def build_state(cfg: ExperimentConfig) -> Ensemble:
    if cfg.mode == "particles":
        return _build_particles(cfg)
    density, velocity = BumpDensity(half_width=cfg.initial.half_width), _velocity_profile(cfg)
    if cfg.mode == "hydro1d":
        return init_characteristics(density, velocity, cfg.n, cfg.kernel, m0=cfg.m0)
    return init_characteristics_2d(density, velocity, math.isqrt(cfg.n), cfg.kernel, m0=cfg.m0)


def _velocity_profile(cfg: ExperimentConfig) -> VelocityProfile:
    init = cfg.initial
    return VelocityProfile(init.velocities, init.amplitude, init.rotation)


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
    else:
        u = _velocity_profile(cfg).value(x)

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
        accept = rng.uniform(0.0, 1.0, size=n) < BumpDensity(half_width=half_width).value(cand)
        take = min(int(accept.sum()), n - filled)
        out[filled : filled + take] = cand[accept][:take]
        filled += take
    return out

