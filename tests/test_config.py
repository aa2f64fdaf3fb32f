"""Configuration parsing, validation, round-trip, presets, overrides."""

import pytest

from flocklab.config import (
    ConfigError,
    parse_config,
    preset_config,
    preset_names,
    preset_text,
    serialize_config,
    with_override,
)
from flocklab.kernels import ConstantKernel, FloorClippedKernel, PowerLawKernel
from flocklab.potentials import PerturbedQuadraticPotential, QuadraticPotential, ZeroPotential

MINIMAL = """
[run]
n = 8
t = 1.0
[kernel]
family = power_law
c0 = 1.0
beta = 1.0
[potential]
family = quadratic
a = 1.0
"""


def test_minimal_config_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.mode == "particles"
    assert cfg.dim == 1
    assert cfg.dt == 1.0e-3
    assert cfg.output_stride == 100
    assert cfg.seed == 0
    assert cfg.m0 == 1.0
    assert cfg.initial.positions == "uniform"
    assert cfg.initial.velocities == "random"
    assert cfg.kernel == PowerLawKernel(1.0, 1.0)
    assert cfg.potential == QuadraticPotential(1.0)


def test_negative_dt_rejected_with_key_path():
    text = MINIMAL.replace("t = 1.0", "t = 1.0\ndt = -1")
    with pytest.raises(ConfigError, match="run.dt"):
        parse_config(text)


def test_unknown_kernel_family_rejected():
    text = MINIMAL.replace("family = power_law", "family = gaussian")
    with pytest.raises(ConfigError, match="kernel.family"):
        parse_config(text)


def test_unknown_key_rejected_with_path():
    text = MINIMAL + "\n[initial]\nwobble = 3\n"
    with pytest.raises(ConfigError, match="initial.wobble"):
        parse_config(text)
    # keys of another kernel or potential family are rejected, not ignored
    with pytest.raises(ConfigError, match="kernel.k"):
        parse_config(MINIMAL.replace("beta = 1.0", "beta = 1.0\nk = 2.0"))
    with pytest.raises(ConfigError, match="potential.eps"):
        parse_config(MINIMAL.replace("family = quadratic\na = 1.0", "family = quadratic\na = 1.0\neps = 0.1"))


def test_bump_height_is_not_a_key():
    # the masses are rescaled to m0, so a bump height would cancel out
    with pytest.raises(ConfigError, match=r"^unknown key initial\.z$"):
        parse_config(MINIMAL + "\n[initial]\npositions = bump\nz = 2\n")
    assert "z =" not in serialize_config(parse_config(MINIMAL))


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="plotting"):
        parse_config(MINIMAL + "\n[plotting]\nlive = yes\n")


def test_missing_required_key():
    with pytest.raises(ConfigError, match="run.n"):
        parse_config(MINIMAL.replace("n = 8", "m0 = 1.0"))


def test_zero_potential_and_floor_kernel_parse():
    text = """
[run]
n = 4
t = 0.5
[kernel]
family = floor_clipped
alpha = 0.25
inner_family = power_law
inner_c0 = 1.0
inner_beta = 1.0
[potential]
family = zero
"""
    cfg = parse_config(text)
    assert cfg.kernel == FloorClippedKernel(PowerLawKernel(1.0, 1.0), 0.25)
    assert cfg.potential == ZeroPotential()


def test_perturbed_potential_validation_propagates():
    text = MINIMAL.replace(
        "family = quadratic\na = 1.0",
        "family = perturbed_quadratic\na = 1.0\neps = 2.0\nkappa = 1.0",
    )
    with pytest.raises(ConfigError):
        parse_config(text)


def test_hydro_mode_constraints():
    text = MINIMAL.replace("n = 8", "n = 8\nmode = hydro1d")
    with pytest.raises(ConfigError, match="positions"):
        parse_config(text)
    text = text.replace("[initial]", "") + "\n[initial]\npositions = bump\nvelocities = random\n"
    with pytest.raises(ConfigError, match="velocities"):
        parse_config(text)


def test_hydro2d_requires_square_n():
    text = """
[run]
mode = hydro2d
dim = 2
n = 200
t = 1.0
[kernel]
family = constant
k = 1.0
[potential]
family = quadratic
a = 1.0
[initial]
positions = bump
velocities = sinusoidal
"""
    with pytest.raises(ConfigError, match="perfect square"):
        parse_config(text)
    assert parse_config(text.replace("n = 200", "n = 196")).n == 196


def test_shift_vectors_must_match_dim():
    text = MINIMAL + "\n[initial]\nx_shift = 1.0, 2.0\n"
    with pytest.raises(ConfigError, match="x_shift"):
        parse_config(text)


def test_rotation_needs_dim2():
    text = MINIMAL + "\n[initial]\nrotation = 0.5\n"
    with pytest.raises(ConfigError, match="rotation"):
        parse_config(text)


def test_round_trip_identity_custom():
    cfg = parse_config(MINIMAL + "\n[initial]\nx_shift = 0.5\nrecenter = true\n")
    again = parse_config(serialize_config(cfg))
    assert again == cfg


@pytest.mark.parametrize("name", preset_names())
def test_presets_parse_and_round_trip(name):
    cfg = preset_config(name)
    assert cfg.scenario == name
    assert parse_config(serialize_config(cfg)) == cfg
    # desk scale: every preset stays within the documented budget
    assert cfg.n <= 512
    assert cfg.t_final <= 100.0


def test_expected_presets_exist():
    names = preset_names()
    assert "quadratic-flocking-1d" in names
    assert "blowup-1d-unconditional" in names


def test_preset_text_unknown_name():
    with pytest.raises(ConfigError, match="unknown preset"):
        preset_text("does-not-exist")


def test_with_override():
    cfg = parse_config(MINIMAL)
    assert with_override(cfg, "potential.a", 2.5).potential == QuadraticPotential(2.5)
    assert with_override(cfg, "kernel.beta", 0.5).kernel == PowerLawKernel(1.0, 0.5)
    assert with_override(cfg, "run.n", 16).n == 16
    assert with_override(cfg, "initial.amplitude", 0.25).initial.amplitude == 0.25
    with pytest.raises(ConfigError):
        with_override(cfg, "kernel.k", 1.0)  # not a constant kernel
    with pytest.raises(ConfigError):
        with_override(cfg, "run.scenario", "x")
    # sweep axes give floats: integral ones are fine for integer keys
    assert with_override(cfg, "run.n", 16.0).n == 16
    # overrides are validated like config text
    for key, value in [
        ("run.dt", -1.0),
        ("run.n", 0),
        ("run.output_stride", 0),
        ("initial.length", -1.0),
        ("run.n", 2.5),
    ]:
        with pytest.raises(ConfigError, match=key):
            with_override(cfg, key, value)


def test_run_t_is_a_whole_number_of_steps():
    # a horizon that is not a whole number of steps would stop short of T or run past it
    cfg = with_override(preset_config("quadratic-flocking-1d"), "run.n", 16)
    for t, dt in [(0.25, 0.1), (4e-4, 1e-3)]:
        with pytest.raises(ConfigError, match="run.t: must be a whole number"):
            with_override(with_override(cfg, "run.dt", dt), "run.t", t)
    # round-off in t/dt is not a broken rule
    assert with_override(with_override(cfg, "run.dt", 0.1), "run.t", 0.3).n_steps == 3


def test_run_n_is_bounded_before_any_state(monkeypatch):
    # the bytes are checked thread-independent up to N = 2048, so config text
    # must not ask for more; the bound fails before a state exists
    from flocklab import initial, runner

    def no_state(cfg):
        raise AssertionError("a state was built")

    monkeypatch.setattr(initial, "build_state", no_state)
    monkeypatch.setattr(runner, "build_state", no_state)
    cfg = parse_config(MINIMAL)
    assert with_override(cfg, "run.n", 2048).n == 2048
    with pytest.raises(ConfigError, match="run.n"):
        parse_config(MINIMAL.replace("n = 8", "n = 4096"))
    with pytest.raises(ConfigError, match="run.n"):
        with_override(cfg, "run.n", 4096)


def test_perturbed_round_trip():
    text = MINIMAL.replace(
        "family = quadratic\na = 1.0",
        "family = perturbed_quadratic\na = 1.25\neps = 0.25\nkappa = 1.0",
    )
    cfg = parse_config(text)
    assert cfg.potential == PerturbedQuadraticPotential(1.25, 0.25, 1.0)
    assert parse_config(serialize_config(cfg)) == cfg


def test_constant_kernel_parse():
    cfg = parse_config(MINIMAL.replace("family = power_law\nc0 = 1.0\nbeta = 1.0",
                                       "family = constant\nk = 2.0"))
    assert cfg.kernel == ConstantKernel(2.0)
