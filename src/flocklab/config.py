"""Experiment configuration: flat INI sections [run], [kernel], [potential], [initial].

Each key is declared once, in a key table per section and per kernel or
potential family; parsing, serialize_config and with_overrides all read
those tables.  Parsing is strict: unknown sections or keys, keys of
another family (``kernel.k`` under ``family = power_law``), missing
required keys, non-integral values of integer keys and invariant
violations are all reported with their key path (for example ``run.dt``).
serialize_config(parse_config(text)) round-trips to an identical
configuration, which is what makes sweep overrides and the by-name
presets reproducible.
"""

from __future__ import annotations

import configparser
import io
import math
import os
from dataclasses import dataclass
from typing import Optional

from .kernels import ConstantKernel, FloorClippedKernel, Kernel, PowerLawKernel
from .potentials import (
    PerturbedQuadraticPotential,
    Potential,
    QuadraticPotential,
    ZeroPotential,
)

__all__ = [
    "ConfigError",
    "InitialSpec",
    "ExperimentConfig",
    "parse_config",
    "serialize_config",
    "with_overrides",
    "override_value",
    "preset_names",
    "preset_text",
    "preset_config",
    "resolve_config",
]

MODES = ("particles", "hydro1d", "hydro2d")
POSITION_KINDS = ("uniform", "bump")
VELOCITY_KINDS = ("linear", "sinusoidal", "random")


class ConfigError(ValueError):
    pass


# only _build constructs these two, and it sets every field from the key tables, which hold the defaults
@dataclass(frozen=True)
class InitialSpec:
    positions: str
    velocities: str
    amplitude: float
    rotation: float
    half_width: float
    recenter: bool
    x_shift: tuple
    u_shift: tuple


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    t_final: float
    kernel: Kernel
    potential: Potential
    initial: InitialSpec
    scenario: Optional[str]
    mode: str
    dim: int
    dt: float
    output_stride: int
    seed: int
    m0: float

    @property
    def n_steps(self) -> int:
        return round(self.t_final / self.dt)  # whole and >= 1: the parser checks it


@dataclass(frozen=True)
class _Int:
    """Kind of an integer key in [lo, hi]; hi=None leaves it unbounded above."""

    lo: int
    hi: Optional[int] = None


_REQUIRED = object()
_NUMBER_KINDS = ("pos", "nonneg", "real", "real?")

# Every key is declared once, as a row (key, attribute, kind, default) of
# the tables below; parsing, serialize_config and with_overrides all read
# them.  A family table maps each family name to (class, key table).  Kinds:
#   "pos", "nonneg", "real"   a finite number: > 0, >= 0, any
#   _Int(lo, hi)              an integer in [lo, hi]
#   a tuple of words          one of them
#   "bool", "text"            a boolean, a string
#   "vec"                     comma-separated finite numbers, one per dimension
#   a family table            a nested kernel whose keys carry the prefix "<key>_"
# A kind ending in "?" is written only when its value differs from its default.
_RUN = (
    ("scenario", "scenario", "text?", None),
    ("mode", "mode", MODES, "particles"),
    ("dim", "dim", _Int(1, 2), 1),
    ("n", "n", _Int(1, 2048), _REQUIRED),
    ("dt", "dt", "pos", 1.0e-3),
    ("t", "t_final", "pos", _REQUIRED),
    ("output_stride", "output_stride", _Int(1), 100),
    ("seed", "seed", _Int(0, 2**64 - 1), 0),
    ("m0", "m0", "pos", 1.0),
)
_INNER_KERNELS = {
    "power_law": (PowerLawKernel, (("c0", "c0", "pos", _REQUIRED), ("beta", "beta", "nonneg", _REQUIRED))),
    "constant": (ConstantKernel, (("k", "value", "pos", _REQUIRED),)),
}
_KERNELS = {
    **_INNER_KERNELS,
    "floor_clipped": (
        FloorClippedKernel,
        (("alpha", "alpha", "pos", _REQUIRED), ("inner", "inner", _INNER_KERNELS, _REQUIRED)),
    ),
}
_POTENTIALS = {
    "quadratic": (QuadraticPotential, (("a", "a", "pos", _REQUIRED),)),
    "perturbed_quadratic": (
        PerturbedQuadraticPotential,
        (("a", "a", "pos", _REQUIRED), ("eps", "eps", "nonneg", _REQUIRED), ("kappa", "kappa", "pos", 1.0)),
    ),
    "zero": (ZeroPotential, ()),
}
_INITIAL = (
    ("positions", "positions", POSITION_KINDS, "uniform"),
    ("velocities", "velocities", VELOCITY_KINDS, "random"),
    ("amplitude", "amplitude", "real", 1.0),
    ("length", "half_width", "pos", 1.0),
    ("recenter", "recenter", "bool", False),
    ("rotation", "rotation", "real?", 0.0),
    ("x_shift", "x_shift", "vec?", ()),
    ("u_shift", "u_shift", "vec?", ()),
)
# section -> its key table, or its family table
_SECTIONS = {"run": _RUN, "kernel": _KERNELS, "potential": _POTENTIALS, "initial": _INITIAL}


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate configuration text."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed configuration: {exc}") from exc
    return _build({s: dict(parser.items(s)) for s in parser.sections()})


def _build(sections: dict) -> ExperimentConfig:
    for name in sections:
        if name not in _SECTIONS:
            raise ConfigError(f"unknown section [{name}]")
    for required in ("run", "kernel", "potential"):
        if required not in sections:
            raise ConfigError(f"missing section [{required}]")

    # keys are popped as they are read; what is left over is unknown
    raw = {name: dict(sections.get(name, {})) for name in _SECTIONS}
    fields = _take("run", raw["run"], _RUN, dim=None)
    dim = fields["dim"]
    fields["kernel"] = _take_component("kernel", raw["kernel"], _KERNELS, dim)
    fields["potential"] = _take_component("potential", raw["potential"], _POTENTIALS, dim)
    fields["initial"] = InitialSpec(**_take("initial", raw["initial"], _INITIAL, dim))
    for name, left in raw.items():
        if left:
            family = f" for family {sections[name]['family']}" if name in ("kernel", "potential") else ""
            raise ConfigError(f"unknown key {name}.{next(iter(left))}{family}")

    cfg = ExperimentConfig(**fields)
    steps = cfg.t_final / cfg.dt
    if not (0.5 <= steps < math.inf and abs(steps - round(steps)) <= 1e-9 * steps):
        raise ConfigError(f"run.t: must be a whole number (>= 1) of steps of run.dt, got t/dt = {steps!r}")
    _validate_mode(cfg)
    return cfg


def _take(section: str, raw: dict, table, dim, prefix: str = "") -> dict:
    """Pop one table's keys from a section's raw strings; return attribute -> value."""
    out = {}
    for key, attr, kind, default in table:
        path = f"{section}.{prefix}{key}"
        if isinstance(kind, dict):
            out[attr] = _take_component(section, raw, kind, dim, f"{prefix}{key}_")
        elif prefix + key in raw:
            out[attr] = _parse_value(path, raw.pop(prefix + key), kind, dim)
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key {path}")
        else:
            out[attr] = default
    return out


def _take_component(section: str, raw: dict, families: dict, dim, prefix: str = ""):
    """Build a kernel or potential from its family key and that family's table."""
    family_row = (("family", "family", tuple(families), _REQUIRED),)
    cls, table = families[_take(section, raw, family_row, dim, prefix)["family"]]
    kwargs = _take(section, raw, table, dim, prefix)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _parse_value(path: str, raw: str, kind, dim):
    if isinstance(kind, _Int):
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(f"{path}: expected an integer, got {raw!r}") from None
        if value < kind.lo:
            raise ConfigError(f"{path}: must be >= {kind.lo}, got {value}")
        if kind.hi is not None and value > kind.hi:
            raise ConfigError(f"{path}: must be <= {kind.hi}, got {value}")
        return value
    if isinstance(kind, tuple):
        if raw not in kind:
            raise ConfigError(f"{path}: expected one of {kind}, got {raw!r}")
        return raw
    kind = kind.rstrip("?")
    if kind == "text":
        return raw
    if kind == "bool":
        low = raw.strip().lower()
        if low in ("true", "yes", "1", "on"):
            return True
        if low in ("false", "no", "0", "off"):
            return False
        raise ConfigError(f"{path}: expected a boolean, got {raw!r}")
    if kind == "vec":
        if raw.strip() == "":
            return ()
        try:
            parts = tuple(float(p) for p in raw.split(","))
        except ValueError:
            raise ConfigError(f"{path}: expected comma-separated numbers") from None
        if len(parts) != dim:
            raise ConfigError(f"{path}: expected {dim} components, got {len(parts)}")
        if not all(map(math.isfinite, parts)):
            raise ConfigError(f"{path}: must be finite")
        return parts
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{path}: expected a number, got {raw!r}") from None
    if kind == "pos" and not value > 0.0:
        raise ConfigError(f"{path}: must be positive, got {value}")
    if kind == "nonneg" and value < 0.0:
        raise ConfigError(f"{path}: must be nonnegative, got {value}")
    if not math.isfinite(value):
        raise ConfigError(f"{path}: must be finite")
    return value


def _format_value(value) -> str:
    if isinstance(value, bool):  # before repr: a bool is an int, and repr(True) is "True"
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(map(repr, value))
    return value if isinstance(value, str) else repr(value)


def _validate_mode(cfg: ExperimentConfig):
    init = cfg.initial
    if cfg.mode == "hydro1d" and cfg.dim != 1:
        raise ConfigError("run.dim: hydro1d runs are one-dimensional")
    if cfg.mode == "hydro2d" and cfg.dim != 2:
        raise ConfigError("run.dim: hydro2d runs are two-dimensional")
    if cfg.mode == "hydro2d":
        side = math.isqrt(cfg.n)
        if side * side != cfg.n:
            raise ConfigError(f"run.n: hydro2d uses a tensor grid, n must be a perfect square, got {cfg.n}")
    if cfg.mode in ("hydro1d", "hydro2d"):
        if init.positions != "bump":
            raise ConfigError(
                "initial.positions: characteristic modes quadrature the bump profile; set positions = bump"
            )
        if init.velocities == "random":
            raise ConfigError(
                "initial.velocities: characteristic modes need an analytic profile (linear or sinusoidal)"
            )
        if init.recenter:
            raise ConfigError("initial.recenter: not supported for characteristic modes")
        if init.x_shift or init.u_shift:
            raise ConfigError("initial.x_shift: shifts are not supported for characteristic modes")
    if cfg.dim == 1 and init.rotation != 0.0:
        raise ConfigError("initial.rotation: only meaningful in dimension 2")


def serialize_config(cfg: ExperimentConfig) -> str:
    """Emit configuration text that parses back to an identical configuration."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(_sections(cfg))
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def _sections(cfg: ExperimentConfig) -> dict:
    """Section -> key -> text: the configuration as the parser reads it."""
    return {
        "run": _entries(cfg, _RUN),
        "kernel": _component_entries(cfg.kernel, _KERNELS),
        "potential": _component_entries(cfg.potential, _POTENTIALS),
        "initial": _entries(cfg.initial, _INITIAL),
    }


def _entries(obj, table, prefix: str = "") -> dict:
    out = {}
    for key, attr, kind, default in table:
        value = getattr(obj, attr)
        if isinstance(kind, dict):
            out.update(_component_entries(value, kind, f"{prefix}{key}_"))
        elif not (isinstance(kind, str) and kind.endswith("?") and value == default):
            out[prefix + key] = _format_value(value)
    return out


def _component_entries(obj, families: dict, prefix: str = "") -> dict:
    family = next(name for name, (cls, _) in families.items() if type(obj) is cls)
    return {prefix + "family": family, **_entries(obj, families[family][1], prefix)}


def _numeric_kinds(spec, prefix: str = "") -> dict:
    """Key -> kind of every numeric key of a section, over all of its families."""
    tables = [table for _, table in spec.values()] if isinstance(spec, dict) else [spec]
    out = {}
    for table in tables:
        for key, _, kind, _ in table:
            if isinstance(kind, dict):
                out.update(_numeric_kinds(kind, f"{prefix}{key}_"))
            elif isinstance(kind, _Int) or kind in _NUMBER_KINDS:
                out[prefix + key] = kind
    return out


def override_value(key_path: str, value):
    """``value`` as the numeric key holds it (an int for an integer key); ConfigError if it cannot."""
    section, _, key = key_path.partition(".")
    kind = _numeric_kinds(_SECTIONS.get(section, ())).get(key)
    if kind is None:
        raise ConfigError(f"cannot override {key_path}: not a numeric key")
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key_path}: expected a number, got {value!r}") from None
    if not isinstance(kind, _Int):
        return number
    if not number.is_integer():
        raise ConfigError(f"{key_path}: expected an integer, got {value!r}")
    return value if isinstance(value, int) else int(number)


def with_overrides(cfg: ExperimentConfig, overrides) -> ExperimentConfig:
    """Return a copy of the configuration with numeric keys set, from (key_path, value) pairs.

    Any numeric key of the configuration can be set (``run.dt``,
    ``kernel.c0``, ``initial.length``, ...).  The configuration is
    serialized, every key set, and the result parsed again once, so it is
    validated exactly like config text: a key of another kernel or
    potential family is rejected, and an integer key needs an integral
    value (16.0 is read as 16, 2.5 is an error).
    """
    sections = _sections(cfg)
    for key_path, value in overrides:
        section, _, key = key_path.partition(".")
        sections[section][key] = repr(override_value(key_path, value))
    return _build(sections)


_PRESETS = {
    # thin-tail kernel under quadratic confinement: exponential two-sided flocking
    "quadratic-flocking-1d": """
[run]
scenario = quadratic-flocking-1d
mode = particles
dim = 1
n = 256
dt = 1e-3
t = 40
output_stride = 100
seed = 20240601
m0 = 1.0
[kernel]
family = power_law
c0 = 1.0
beta = 1.0
[potential]
family = quadratic
a = 1.0
[initial]
positions = uniform
velocities = random
amplitude = 1.0
length = 1.0
recenter = true
""",
    "quadratic-flocking-2d": """
[run]
scenario = quadratic-flocking-2d
mode = particles
dim = 2
n = 128
dt = 1e-3
t = 30
output_stride = 100
seed = 20240602
m0 = 1.0
[kernel]
family = power_law
c0 = 1.0
beta = 1.0
[potential]
family = quadratic
a = 1.0
[initial]
positions = uniform
velocities = random
amplitude = 1.0
length = 1.0
recenter = true
""",
    # uncentered cloud: the means trace the closed-form oscillation exactly
    "oscillator-means": """
[run]
scenario = oscillator-means
mode = particles
dim = 2
n = 64
dt = 1e-3
t = 10
output_stride = 100
seed = 20240603
m0 = 1.0
[kernel]
family = power_law
c0 = 1.0
beta = 1.0
[potential]
family = quadratic
a = 4.0
[initial]
positions = uniform
velocities = random
amplitude = 1.0
length = 1.0
x_shift = 1.0, -0.5
u_shift = 0.25, 0.5
""",
    # steep confinement forces gradient blow-up for any data
    "blowup-1d-unconditional": """
[run]
scenario = blowup-1d-unconditional
mode = hydro1d
dim = 1
n = 128
dt = 1e-3
t = 10
output_stride = 100
seed = 1
m0 = 1.0
[kernel]
family = constant
k = 2.0
[potential]
family = quadratic
a = 5.0
[initial]
positions = bump
velocities = sinusoidal
amplitude = 0.4
length = 1.0
""",
    # e starts above the lower fixed point and is trapped there forever
    "smooth-1d-guaranteed": """
[run]
scenario = smooth-1d-guaranteed
mode = hydro1d
dim = 1
n = 128
dt = 1e-3
t = 100
output_stride = 100
seed = 1
m0 = 1.0
[kernel]
family = constant
k = 1.0
[potential]
family = quadratic
a = 0.2
[initial]
positions = bump
velocities = sinusoidal
amplitude = -0.7
length = 1.5
""",
    # single characteristic: e follows the scalar constant-coefficient Riccati flow
    "riccati-oracle": """
[run]
scenario = riccati-oracle
mode = hydro1d
dim = 1
n = 1
dt = 1e-4
t = 5
output_stride = 100
seed = 1
m0 = 1.0
[kernel]
family = constant
k = 1.0
[potential]
family = quadratic
a = 0.2
[initial]
positions = bump
velocities = linear
amplitude = -0.7
length = 1.0
""",
    # constant coupling above the stability bound: exponential pair-functional decay
    "convex-flocking-constant": """
[run]
scenario = convex-flocking-constant
mode = particles
dim = 1
n = 256
dt = 1e-3
t = 60
output_stride = 100
seed = 20240604
m0 = 1.0
[kernel]
family = constant
k = 2.0
[potential]
family = perturbed_quadratic
a = 1.25
eps = 0.25
kappa = 1.0
[initial]
positions = uniform
velocities = random
amplitude = 1.0
length = 1.0
""",
    # decaying kernel above the stability bound: at least algebraic decay
    "convex-flocking-powerlaw": """
[run]
scenario = convex-flocking-powerlaw
mode = particles
dim = 1
n = 128
dt = 2e-3
t = 100
output_stride = 100
seed = 20240605
m0 = 1.0
[kernel]
family = power_law
c0 = 2.0
beta = 0.5
[potential]
family = perturbed_quadratic
a = 1.25
eps = 0.25
kappa = 1.0
[initial]
positions = uniform
velocities = random
amplitude = 1.0
length = 1.0
""",
    # subcritical 2D data with constant coupling: e stays nonnegative, gap decays
    "subcritical-2d-constant": """
[run]
scenario = subcritical-2d-constant
mode = hydro2d
dim = 2
n = 256
dt = 1e-3
t = 50
output_stride = 100
seed = 1
m0 = 1.0
[kernel]
family = constant
k = 3.0
[potential]
family = quadratic
a = 1.0
[initial]
positions = bump
velocities = sinusoidal
amplitude = 0.5
rotation = 0.25
length = 1.2
""",
}


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def preset_text(name: str) -> str:
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(preset_names())}")
    return _PRESETS[name]


def preset_config(name: str) -> ExperimentConfig:
    return parse_config(preset_text(name))


def resolve_config(spec: str) -> ExperimentConfig:
    """Interpret a CLI argument as a config file path or a preset name."""
    if os.path.exists(spec):
        try:
            with open(spec, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {spec!r}: {exc.strerror}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {spec!r} is not UTF-8: byte {exc.start} is invalid") from None
        return parse_config(text)
    if spec in _PRESETS:
        return preset_config(spec)
    raise ConfigError(f"{spec!r} is neither a config file nor a preset; presets: {', '.join(preset_names())}")
