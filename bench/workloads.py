"""The four benchmark workloads and the seeded generation of their configs.

Each workload is a fixed cycle of config templates built from the
built-in presets, shortened so that one operation takes about 0.1 s on a
2-core Xeon.  A template names what every operation on it must show:
the classifier verdict, whether it must blow up, and the bound checks it
must report.  The workload seed only picks the inputs: particle templates
draw ``run.seed`` from it, and characteristic templates (which have no
randomness) jitter ``initial.amplitude`` inside a band where the verdict
does not change.  The program itself only ever sees the generated config
text.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass
from typing import Optional

import numpy as np

from flocklab import cli, config, runner

QUADRATIC_CHECKS = (
    "deltaE_exp_bound",
    "deltaEinf_exp_bound",
    "particle_energy_bound",
    "support_energy_inequality",
    "means_oscillator",
)


@dataclass(frozen=True)
class Template:
    """One kind of operation: a preset plus the overrides that size it."""

    name: str
    preset: str
    overrides: dict
    checks: tuple
    verdict: Optional[str] = None
    blowup: bool = False
    # relative half-width of the amplitude band (characteristic modes only)
    jitter: float = 0.0
    # slots per cycle: the case a workload is about gets two
    weight: int = 1
    riccati_oracle: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    templates: tuple
    # the template whose unjittered config is compared with bench/reference/
    canonical: str

    def cycle(self) -> list:
        """Templates in the order one cycle runs them."""
        out = []
        for tpl in self.templates:
            out += [tpl] * tpl.weight
        return out

    def template(self, name: str) -> Template:
        return next(t for t in self.templates if t.name == name)


_H2D_POWER_LAW = {
    "kernel.family": "power_law",
    "kernel.k": None,
    "kernel.c0": "3.0",
    "kernel.beta": "0.5",
}

WORKLOADS = {
    w.name: w
    for w in (
        # particles with decaying kernels at N=128..512, d=1,2: the pair pass and
        # kernel evaluation dominate; N x N buffers straddle the L2 size
        Workload(
            name="particles-pairpass",
            canonical="qf1d-n256",
            templates=(
                Template(
                    name="qf1d-n256",
                    preset="quadratic-flocking-1d",
                    overrides={"run.t": "0.07", "run.output_stride": "35"},
                    checks=QUADRATIC_CHECKS,
                ),
                Template(
                    name="qf2d-n128",
                    preset="quadratic-flocking-2d",
                    overrides={"run.t": "0.12", "run.output_stride": "40"},
                    checks=QUADRATIC_CHECKS,
                ),
                Template(
                    name="cfpl-n128",
                    preset="convex-flocking-powerlaw",
                    overrides={"run.t": "0.48", "run.output_stride": "20"},
                    checks=("deltaE_sqrt_trend",),
                ),
                Template(
                    name="qf1d-n512",
                    preset="quadratic-flocking-1d",
                    overrides={"run.n": "512", "run.t": "0.016", "run.output_stride": "8"},
                    checks=QUADRATIC_CHECKS,
                    weight=2,
                ),
            ),
        ),
        # 1D characteristics with a constant kernel (O(N) alignment): the fixed
        # per-step cost dominates; includes blow-up bracketing
        Workload(
            name="chars-stepping",
            canonical="riccati-n1",
            templates=(
                Template(
                    name="riccati-n1",
                    preset="riccati-oracle",
                    overrides={"run.t": "0.05"},
                    checks=QUADRATIC_CHECKS
                    + ("deltaE_pair_bound", "min_e_persistence", "max_e_bound", "no_blowup"),
                    verdict="smooth_guaranteed",
                    jitter=0.01,
                    riccati_oracle=True,
                ),
                Template(
                    name="smooth-n128",
                    preset="smooth-1d-guaranteed",
                    overrides={"run.t": "0.45"},
                    checks=QUADRATIC_CHECKS
                    + ("deltaE_pair_bound", "min_e_persistence", "max_e_bound", "no_blowup"),
                    verdict="smooth_guaranteed",
                    jitter=0.01,
                ),
                Template(
                    name="blowup-n128",
                    preset="blowup-1d-unconditional",
                    overrides={"run.t": "2", "run.dt": "0.002"},
                    checks=QUADRATIC_CHECKS + ("blowup_detected",),
                    verdict="blowup_guaranteed",
                    blowup=True,
                    jitter=0.05,
                ),
            ),
        ),
        # 2D characteristics at N=256 with a power-law kernel: the gradient forcing
        # and 2x2 products of step_2d dominate
        Workload(
            name="hydro2d-gradient",
            canonical="h2d-powerlaw",
            templates=(
                Template(
                    name="h2d-powerlaw",
                    preset="subcritical-2d-constant",
                    overrides={**_H2D_POWER_LAW, "run.t": "0.006"},
                    checks=QUADRATIC_CHECKS,
                    verdict="not_subcritical",
                    jitter=0.05,
                    weight=2,
                ),
                Template(
                    name="h2d-constant",
                    preset="subcritical-2d-constant",
                    overrides={"run.t": "0.16", "run.output_stride": "80"},
                    checks=QUADRATIC_CHECKS
                    + ("deltaE_pair_bound", "min_e_nonneg", "eta_s_bound", "omega_bound", "no_blowup"),
                    verdict="subcritical_quadratic",
                    jitter=0.05,
                ),
            ),
        ),
        # particles with a constant kernel and a frame every step: frame
        # diagnostics, bound checks and CSV output dominate
        Workload(
            name="dense-frames",
            canonical="cfc-n512",
            templates=(
                Template(
                    name="cfc-n512",
                    preset="convex-flocking-constant",
                    overrides={"run.n": "512", "run.t": "0.008", "run.output_stride": "1"},
                    checks=("deltaE_pair_bound",),
                    weight=2,
                ),
                Template(
                    name="qc2d-n256",
                    preset="quadratic-flocking-2d",
                    overrides={
                        "run.n": "256",
                        "run.t": "0.014",
                        "run.output_stride": "1",
                        "kernel.family": "constant",
                        "kernel.c0": None,
                        "kernel.beta": None,
                        "kernel.k": "2.0",
                    },
                    checks=QUADRATIC_CHECKS + ("deltaE_pair_bound",),
                ),
            ),
        ),
    )
}


def config_text(tpl: Template, rng: Optional[np.random.Generator]) -> str:
    """Config text for one operation; ``rng=None`` gives the canonical, unjittered config."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(config.preset_text(tpl.preset))
    parser["run"]["scenario"] = tpl.name
    for key, value in tpl.overrides.items():
        section, _, option = key.partition(".")
        if value is None:
            parser.remove_option(section, option)
        else:
            parser[section][option] = value
    if rng is not None:
        if parser["run"]["mode"] == "particles":
            parser["run"]["seed"] = str(int(rng.integers(0, 2**63)))
        else:
            base = float(parser["initial"]["amplitude"])
            parser["initial"]["amplitude"] = repr(base * (1.0 + tpl.jitter * rng.uniform(-1.0, 1.0)))
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def op_stream(workload: Workload, seed: int):
    """Endless (template, config text) pairs, one cycle after another."""
    rng = np.random.Generator(np.random.Philox(seed))
    cycle = workload.cycle()
    while True:
        for tpl in cycle:
            yield tpl, config_text(tpl, rng)


def set_up(text: str):
    """The set-up of one config: parse it, build its constants report, classify it."""
    cfg = config.parse_config(text)
    cli.constants_json(cfg)
    if cfg.mode != "particles":
        runner.classify(cfg)
