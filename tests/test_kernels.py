"""Kernel families: evaluation and analytic bounds."""

import numpy as np
import pytest

from flocklab.kernels import (
    ConstantKernel,
    FloorClippedKernel,
    PowerLawKernel,
    kernel_bounds,
    kernel_eval,
    kernel_eval_sq,
    kernel_inf,
    kernel_slope_over_r_sq,
)


def test_power_law_eval_values():
    k = PowerLawKernel(c0=1.0, beta=1.0)
    assert kernel_eval(k, 0.0) == 1.0
    assert kernel_eval(k, 1.0) == 0.5


def test_floor_clip_eval():
    k = FloorClippedKernel(PowerLawKernel(1.0, 1.0), alpha=0.3)
    # max(0.2, 0.3) at r = 2
    assert kernel_eval(k, 2.0) == pytest.approx(0.3, abs=0)
    assert kernel_eval(k, 0.0) == 1.0


def test_eval_vectorized_matches_scalar():
    k = PowerLawKernel(c0=2.0, beta=0.75)
    r = np.linspace(0.0, 5.0, 17)
    vals = kernel_eval(k, r)
    for ri, vi in zip(r, vals):
        assert vi == kernel_eval(k, float(ri))


def test_constructor_validation():
    with pytest.raises(ValueError):
        PowerLawKernel(c0=0.0, beta=1.0)
    with pytest.raises(ValueError):
        PowerLawKernel(c0=1.0, beta=-0.1)
    with pytest.raises(ValueError):
        ConstantKernel(0.0)
    with pytest.raises(ValueError):
        FloorClippedKernel(ConstantKernel(1.0), alpha=0.0)



_NON_FINITE = (float("nan"), float("inf"), -float("inf"))


@pytest.mark.parametrize(
    "build",
    [
        lambda v: PowerLawKernel(v, 1.0),
        lambda v: PowerLawKernel(1.0, v),
        ConstantKernel,
        lambda v: FloorClippedKernel(PowerLawKernel(1.0, 1.0), v),
    ],
    ids=["power_law.c0", "power_law.beta", "constant.value", "floor_clipped.alpha"],
)
@pytest.mark.parametrize("value", _NON_FINITE, ids=repr)
def test_constructors_reject_non_finite_parameters(build, value):
    # a NaN beta once built a kernel whose bounds were (1.0, nan) and whose first step read as a blow-up
    with pytest.raises(ValueError, match="finite"):
        build(value)

def test_nested_floor_flattens():
    inner = PowerLawKernel(1.0, 1.0)
    nested = FloorClippedKernel(FloorClippedKernel(inner, 0.2), 0.1)
    assert nested.inner == inner
    assert nested.alpha == 0.2
    r = np.linspace(0.0, 4.0, 33)
    expect = np.maximum(kernel_eval(inner, r), 0.2)
    assert np.array_equal(kernel_eval(nested, r), expect)


# --- bounds ---


def test_kernel_bounds_power_law():
    k = PowerLawKernel(1.0, 1.0)
    hi, slope = kernel_bounds(k)
    assert kernel_eval(k, 2.0) == pytest.approx(0.2)
    assert hi == 1.0
    # maximum of 2r/(1+r^2)^2 sits at r = 1/sqrt(3)
    assert slope == pytest.approx(9.0 / (8.0 * np.sqrt(3.0)), rel=1e-14)


def test_kernel_bounds_constant():
    k = ConstantKernel(2.0)
    assert kernel_bounds(k) == (2.0, 0.0)
    assert kernel_eval(k, 10.0) == 2.0


def test_kernel_bounds_floor_clipped():
    k = FloorClippedKernel(PowerLawKernel(1.0, 1.0), 0.3)
    hi, slope = kernel_bounds(k)
    assert kernel_eval(k, 5.0) == 0.3
    assert hi == 1.0
    assert slope == pytest.approx(9.0 / (8.0 * np.sqrt(3.0)), rel=1e-14)
    # config text reaches a floor over a constant kernel through inner_family = constant
    assert kernel_bounds(FloorClippedKernel(ConstantKernel(2.0), 0.5)) == (2.0, 0.0)


def test_floor_clip_slope_when_peak_clipped():
    # floor above phi(r*): the sup of |phi'| moves to the crossover radius
    inner = PowerLawKernel(1.0, 1.0)
    alpha = 0.9
    k = FloorClippedKernel(inner, alpha)
    r_c = np.sqrt(1.0 / alpha - 1.0)
    expect = 2.0 * r_c / (1.0 + r_c**2) ** 2
    assert kernel_bounds(k)[1] == pytest.approx(expect, rel=1e-13)
    # fully clipped kernel is constant
    assert kernel_bounds(FloorClippedKernel(inner, 2.0))[1] == 0.0


@pytest.mark.parametrize(
    "kernel",
    [
        PowerLawKernel(1.0, 1.0),
        PowerLawKernel(2.0, 0.5),
        PowerLawKernel(0.7, 0.0),
        PowerLawKernel(1.3, 2.5),
        ConstantKernel(1.5),
        FloorClippedKernel(PowerLawKernel(1.0, 1.0), 0.3),
        FloorClippedKernel(PowerLawKernel(1.0, 1.0), 0.9),
    ],
)
def test_bound_consistency_random_radii(kernel):
    rng = np.random.default_rng(7)
    d_max = 4.0
    hi, slope_sup = kernel_bounds(kernel)
    lo = kernel_eval(kernel, d_max)  # the kernel is nonincreasing, so phi(d_max) bounds it on [0, d_max]
    r = rng.uniform(0.0, d_max, 1000)
    vals = kernel_eval(kernel, r)
    assert np.all(vals >= lo - 1e-15)
    assert np.all(vals <= hi + 1e-15)
    h = 1e-6
    r_mid = rng.uniform(h, d_max, 1000)
    fd = (kernel_eval(kernel, r_mid + h) - kernel_eval(kernel, r_mid - h)) / (2.0 * h)
    assert np.all(np.abs(fd) <= slope_sup + 1e-6)


@pytest.mark.parametrize(
    "kernel",
    [
        PowerLawKernel(1.0, 1.0),
        PowerLawKernel(2.0, 0.5),
        ConstantKernel(1.5),
        FloorClippedKernel(PowerLawKernel(1.0, 1.0), 0.3),
    ],
)
def test_monotone_nonincreasing(kernel):
    r = np.linspace(0.0, 12.0, 400)
    vals = kernel_eval(kernel, r)
    assert np.all(np.diff(vals) <= 1e-15)


def test_slope_over_r_matches_difference_quotient():
    for kernel in (PowerLawKernel(1.5, 0.8), FloorClippedKernel(PowerLawKernel(1.5, 0.8), 0.4)):
        r = np.linspace(0.05, 3.0, 50)
        h = 1e-6
        fd = (kernel_eval(kernel, r + h) - kernel_eval(kernel, r - h)) / (2.0 * h)
        got = kernel_slope_over_r_sq(kernel, r * r) * r
        # skip the kink of the clipped kernel
        mask = np.abs(kernel_eval(kernel, r) - getattr(kernel, "alpha", -1.0)) > 1e-3
        assert np.allclose(got[mask], fd[mask], atol=1e-8)
    # the radial factor is finite at r = 0, so the gradient z * factor vanishes there
    assert kernel_slope_over_r_sq(PowerLawKernel(1.0, 1.0), np.asarray(0.0)) == -2.0
    assert np.all(kernel_slope_over_r_sq(ConstantKernel(3.0), np.linspace(0, 4, 9)) == 0.0)


def test_eval_sq_out_aliasing():
    k = PowerLawKernel(1.0, 1.0)
    r_sq = np.linspace(0.0, 9.0, 10)
    expect = kernel_eval_sq(k, r_sq)
    buf = r_sq.copy()
    got = kernel_eval_sq(k, buf, out=buf)
    assert got is buf
    assert np.array_equal(got, expect)


def test_floor_at_constant_value_unchanged_semantics():
    base = ConstantKernel(2.0)
    k = FloorClippedKernel(base, 2.0)
    r = np.linspace(0.0, 20.0, 101)
    assert np.array_equal(kernel_eval(k, r), kernel_eval(base, r))


def test_kernel_inf():
    assert kernel_inf(ConstantKernel(2.0)) == 2.0
    assert kernel_inf(PowerLawKernel(1.0, 1.0)) == 0.0
    assert kernel_inf(PowerLawKernel(1.0, 0.0)) == 1.0
    assert kernel_inf(FloorClippedKernel(PowerLawKernel(1.0, 1.0), 0.25)) == 0.25
