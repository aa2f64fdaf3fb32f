"""Particle initial data from the bump profile with analytic velocity profiles."""

import numpy as np
import pytest

from flocklab.config import parse_config
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
