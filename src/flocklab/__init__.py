"""flocklab: a numerical laboratory for velocity alignment with confining potentials.

Agent-based and characteristic-based solvers for pairwise velocity
alignment driven by an external potential, together with the closed-form
constants of the decay and regularity estimates and a runner that checks
every quantitative bound frame by frame.
"""

from .config import ExperimentConfig, parse_config, preset_config, preset_names, serialize_config
from .constants import ConstantsReport, constants_report
from .diagnostics import DiagnosticsFrame, RateFit, fit_rate
from .dynamics import BlowupSignal, Ensemble, means, recenter, step_rk4
from .hydro1d import ThresholdReport, classify_1d, detect_blowup, init_characteristics
from .kernels import ConstantKernel, FloorClippedKernel, PowerLawKernel, kernel_bounds, kernel_eval
from .potentials import (
    PerturbedQuadraticPotential,
    QuadraticPotential,
    ZeroPotential,
    convexity_bounds,
)
from .runner import RunResult, RunSummary, classify, run, sweep

__version__ = "0.1.0"
