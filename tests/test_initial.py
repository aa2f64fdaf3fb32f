"""Initial data: bump-shaped particles and characteristics with analytic velocity profiles."""

import math

import numpy as np
import pytest

import oracles
from flocklab import hydro2d
from flocklab.config import parse_config
from flocklab.hydro1d import BumpDensity, VelocityProfile, init_characteristics
from flocklab.hydro2d import init_characteristics_2d
from flocklab.initial import build_state

BUMP = """
[run]
n = 64
dim = {dim}
t = 1.0
seed = 7
[kernel]
family = constant
k = 1.0
[potential]
family = quadratic
a = 1.0
[initial]
positions = bump
velocities = {velocities}
amplitude = 0.5
length = 1.5
"""


def _profile(velocities, x, amplitude=0.5, rotation=0.25):
    """u(x) of the linear and sinusoidal profiles, written out per dimension."""
    if x.shape[1] == 1:
        return amplitude * (x if velocities == "linear" else np.sin(x))
    x1, x2 = x[:, :1], x[:, 1:]
    if velocities == "linear":
        return np.hstack([amplitude * x2 - rotation * x2, amplitude * x1 + rotation * x1])
    return np.hstack([amplitude * np.sin(x2) - rotation * x2, amplitude * np.sin(x1) + rotation * x1])


@pytest.mark.parametrize("velocities", ["linear", "sinusoidal"])
@pytest.mark.parametrize("dim", [1, 2])
def test_particle_bump_with_analytic_velocities(dim, velocities):
    text = BUMP.format(dim=dim, velocities=velocities)
    if dim == 2:
        text += "rotation = 0.25\n"
    cfg = parse_config(text)
    ens = build_state(cfg)
    again = build_state(cfg)
    assert np.array_equal(ens.x, again.x) and np.array_equal(ens.u, again.u)  # the seed fixes the data
    assert ens.x.shape == ens.u.shape == (64, dim)
    assert np.abs(ens.x).max() <= 1.5 and len(np.unique(ens.x[:, 0])) == 64
    assert np.abs(ens.x).mean() < 0.4 * 1.5  # bump-weighted: E|x| = 0.3125 L, uniform gives 0.5 L
    np.testing.assert_allclose(ens.u, _profile(velocities, ens.x), rtol=1e-14, atol=1e-15)
    other = build_state(parse_config(text.replace("seed = 7", "seed = 8")))
    assert not np.array_equal(ens.x, other.x)


BITWISE = """
[run]
mode = {mode}
n = {n}
dim = {dim}
t = 1.0
seed = 11
m0 = 1.5
[kernel]
family = power_law
c0 = 1.0
beta = 0.5
[potential]
family = quadratic
a = 1.0
[initial]
positions = bump
velocities = {velocities}
amplitude = 0.7
length = 1.3
"""


def _bits(ens):
    """float.hex of every mass and every evolved entry, by array name."""
    arrays = {"m": ens.m, **ens.evolved()}
    return {name: [v.hex() for v in a.ravel().tolist()] for name, a in arrays.items()}


@pytest.mark.parametrize("velocities", ["linear", "sinusoidal"])
@pytest.mark.parametrize("mode, dim, n", [
    ("particles", 1, 64), ("particles", 2, 64), ("hydro1d", 1, 200), ("hydro2d", 2, 144),
])
def test_initial_data_keeps_the_per_dimension_bits(mode, dim, n, velocities):
    # one bump, one velocity profile and one quadrature give the bits of the
    # per-dimension classes and init functions they replaced, rotation included
    text = BITWISE.format(mode=mode, n=n, dim=dim, velocities=velocities)
    if dim == 2:
        text += "rotation = 0.25\n"
    cfg = parse_config(text)
    init = cfg.initial
    half, amp, rot = init.half_width, init.amplitude, init.rotation
    old = oracles.reference_velocity(velocities, dim, amp, rot)
    if mode == "particles":
        expected = oracles.reference_bump_particles(cfg)
    elif mode == "hydro1d":
        expected = oracles.reference_init_characteristics(
            oracles.ReferenceBump(half_width=half), old, n, cfg.kernel, m0=cfg.m0
        )
        direct = init_characteristics(
            BumpDensity(half_width=half), VelocityProfile(velocities, amp), n, cfg.kernel, m0=cfg.m0
        )
        assert _bits(direct) == _bits(expected)
    else:
        side = math.isqrt(n)
        expected = oracles.reference_init_characteristics_2d(
            oracles.ReferenceBump2D(half_width=half), old, side, m0=cfg.m0
        )
        direct = init_characteristics_2d(
            BumpDensity(half_width=half), VelocityProfile(velocities, amp, rot), side, cfg.kernel, m0=cfg.m0
        )
        assert _bits(direct) == _bits(expected)
        if velocities == "sinusoidal":  # the names the benchmark's layer timings build with
            bump, profile = hydro2d.BumpDensity2D(1.0, half), hydro2d.SineShearVelocity(amp, rot)
            bench = init_characteristics_2d(bump, profile, side, cfg.kernel, m0=cfg.m0)
            assert _bits(bench) == _bits(expected)
    assert _bits(build_state(cfg)) == _bits(expected)
