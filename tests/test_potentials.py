"""Potential families: values, derivatives, convexity bounds."""

import numpy as np
import pytest

from flocklab.potentials import (
    PerturbedQuadraticPotential,
    QuadraticPotential,
    ZeroPotential,
    convexity_bounds,
    grad_at,
    gradient,
    hess_diag_at,
    hessian_diag,
    value_at,
)


def _eval(potential, point):
    """U, grad U and the Hessian diagonal at one point, through a one-row x."""
    row = np.asarray(point, dtype=float)[None, :]
    hess = np.broadcast_to(hess_diag_at(potential, row), row.shape)  # a constant diagonal is a scalar
    return value_at(potential, row)[0], grad_at(potential, row)[0], hess[0]


def test_quadratic_eval():
    u, grad, hess = _eval(QuadraticPotential(4.0), [1.0, 0.0])
    assert u == 2.0
    assert np.array_equal(grad, [4.0, 0.0])
    assert np.array_equal(hess, [4.0, 4.0])


def test_zero_eval():
    u, grad, hess = _eval(ZeroPotential(), [3.0, -1.0])
    assert u == 0.0
    assert np.all(grad == 0.0)
    assert np.all(hess == 0.0)
    # exact +0.0, not 0 * |x|^2 (NaN where |x|^2 overflows) nor 0 * x (-0.0 for negative x)
    for point in ([1e300, -1e300], [-0.0, -0.0], [-1.0, 0.0]):
        u, grad, _ = _eval(ZeroPotential(), point)
        assert np.asarray(u).tobytes() == np.float64(0.0).tobytes()
        assert grad.tobytes() == np.zeros(2).tobytes()


def test_perturbed_eval_1d():
    u, grad, hess = _eval(PerturbedQuadraticPotential(1.0, 0.25, 1.0), [0.0])
    assert u == 0.0
    assert grad[0] == 0.0
    assert hess[0] == pytest.approx(1.25)


def test_perturbed_validation():
    with pytest.raises(ValueError):
        PerturbedQuadraticPotential(1.0, 1.0, 1.0)  # eps must stay below a
    with pytest.raises(ValueError):
        PerturbedQuadraticPotential(1.0, -0.1, 1.0)
    with pytest.raises(ValueError):
        PerturbedQuadraticPotential(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        PerturbedQuadraticPotential(1.0, 0.5, 0.0)



@pytest.mark.parametrize(
    "build",
    [
        QuadraticPotential,
        lambda v: PerturbedQuadraticPotential(v, 0.1, 1.0),
        lambda v: PerturbedQuadraticPotential(1.0, v, 1.0),
        lambda v: PerturbedQuadraticPotential(1.0, 0.1, v),
    ],
    ids=["quadratic.a", "perturbed.a", "perturbed.eps", "perturbed.kappa"],
)
@pytest.mark.parametrize("value", (float("nan"), float("inf"), -float("inf")), ids=repr)
def test_constructors_reject_non_finite_parameters(build, value):
    with pytest.raises(ValueError):
        build(value)

@pytest.mark.parametrize(
    "call",
    [
        lambda p: value_at(p, np.zeros((2, 1))), gradient, lambda p: grad_at(p, np.zeros((2, 1))), hessian_diag,
        lambda p: hess_diag_at(p, np.zeros((2, 1))), convexity_bounds,
    ],
    ids=["value_at", "gradient", "grad_at", "hessian_diag", "hess_diag_at", "convexity_bounds"],
)
def test_unknown_potential_family_raises(call):
    with pytest.raises(TypeError, match="unknown potential"):
        call(object())


def test_convexity_bounds():
    assert convexity_bounds(QuadraticPotential(2.0)) == (2.0, 2.0)
    assert convexity_bounds(PerturbedQuadraticPotential(1.25, 0.25, 1.0)) == (1.0, 1.5)
    assert convexity_bounds(ZeroPotential()) == (0.0, 0.0)


_POTENTIALS = [
    QuadraticPotential(0.7),
    PerturbedQuadraticPotential(1.0, 0.25, 1.0),
    PerturbedQuadraticPotential(2.0, 1.5, 3.0),
    ZeroPotential(),
]


@pytest.mark.parametrize("potential", _POTENTIALS)
@pytest.mark.parametrize("dim", [1, 2])
def test_gradient_matches_finite_difference(potential, dim):
    rng = np.random.default_rng(11)
    x = rng.uniform(-3.0, 3.0, (200, dim))
    grad = grad_at(potential, x)
    h = 1e-5
    for k in range(dim):
        shift = np.zeros(dim)
        shift[k] = h
        fd = (value_at(potential, x + shift) - value_at(potential, x - shift)) / (2.0 * h)
        scale = np.maximum(np.abs(grad[:, k]), 1.0)
        assert np.all(np.abs(fd - grad[:, k]) <= 1e-6 * scale)


@pytest.mark.parametrize("potential", _POTENTIALS)
@pytest.mark.parametrize("dim", [1, 2])
def test_hessian_eigenvalues_within_bounds(potential, dim):
    rng = np.random.default_rng(13)
    x = rng.uniform(-5.0, 5.0, (1000, dim))
    a_lo, a_hi = convexity_bounds(potential)
    diag = hess_diag_at(potential, x)
    # all supported families have diagonal Hessians, so the diagonal holds
    # the eigenvalues
    assert np.all(diag >= a_lo - 1e-12)
    assert np.all(diag <= a_hi + 1e-12)
    # the builder the steps keep gives the same bits; a constant diagonal is a 0-d array there, a float here
    decided = hessian_diag(potential)(x)
    assert decided.tobytes() == np.asarray(diag).tobytes()
    assert (decided.ndim == 0) == isinstance(diag, float)
    if isinstance(potential, PerturbedQuadraticPotential):  # the formula with Python floats
        expected = potential.a + potential.eps * np.cos(potential.kappa * x)
        assert decided.tobytes() == expected.tobytes()


def test_quadratic_hessian_exact():
    x = np.random.default_rng(5).uniform(-2, 2, (50, 2))
    assert np.all(hess_diag_at(QuadraticPotential(3.0), x) == 3.0)


def test_hessian_matches_gradient_finite_difference():
    potential = PerturbedQuadraticPotential(1.5, 0.5, 2.0)
    rng = np.random.default_rng(17)
    x = rng.uniform(-2.0, 2.0, (100, 2))
    h = 1e-6
    for k in range(2):
        shift = np.zeros(2)
        shift[k] = h
        fd = (grad_at(potential, x + shift)[:, k] - grad_at(potential, x - shift)[:, k]) / (2 * h)
        assert np.allclose(fd, hess_diag_at(potential, x)[:, k], atol=1e-7)
