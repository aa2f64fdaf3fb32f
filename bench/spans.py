"""Span tracing of flocklab's layers from outside the package.

While a ``Tracer`` is installed, the public functions that flocklab's
modules import from each other are rebound to wrappers that record one
span per call: name, start, end, parent span and the id of the benchmark
operation it belongs to.  Spans stay in memory until ``write`` dumps them.

``rk4_step`` and ``check_state_arrays`` are left unwrapped on purpose:
``rk4_step`` only calls back into the stepper's private right-hand side,
so wrapping it would move the stepper's own work (validation, RK4 stage
arithmetic, the 2D gradient forcing and 2x2 products) out of the
``step_*`` spans that the per-layer metrics are defined on.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

from flocklab.kernels import ConstantKernel
from flocklab.runner import RunSummary

# module -> attributes rebound while tracing (the span is named after the
# function's defining module, so one function imported into several
# modules is one span name)
BINDINGS = {
    "flocklab.runner": (
        "energy", "fluctuations", "particle_energy_support", "lyapunov_v",
        "perturbed_particle_energy_max", "pair_functional_f", "fit_rate",
        "conv_phi", "means", "step_rk4", "classify_1d", "detect_blowup",
        "e_upper_bound", "smooth_lower_root", "step_1d", "classify_2d_general",
        "classify_2d_quadratic", "spectral_arrays", "step_2d", "build_state",
        "ensemble_view", "kernel_bounds", "kernel_eval", "kernel_inf",
        "convexity_bounds", "serialize_config", "run", "classify", "frames_csv",
    ),
    "flocklab.dynamics": (
        "kernel_eval_sq", "grad_at", "alignment_force", "pairwise_phi_weights", "conv_phi",
    ),
    "flocklab.hydro1d": ("alignment_force", "grad_at", "hess_diag_at"),
    "flocklab.hydro2d": ("alignment_force", "kernel_slope_over_r_sq", "grad_at", "hess_diag_at"),
    "flocklab.initial": (
        "energy", "fluctuations", "particle_energy_support", "conv_phi", "means",
        "recenter", "init_characteristics", "init_characteristics_2d",
        "spectral_arrays", "convexity_bounds", "build_state",
    ),
    # read through the module at call time by the runner and the CLI
    "flocklab.config": ("parse_config",),
    "flocklab.constants": ("constants_report",),
}

# span name -> layer whose self-time share the traced run reports
LAYER_OF = {
    "dynamics.alignment_force": "pair",
    "dynamics.pairwise_phi_weights": "pair",
    "dynamics.conv_phi": "pair",
    "kernels.kernel_eval_sq": "pair",
    "dynamics.step_rk4": "step",
    "hydro1d.step_1d": "step",
    "hydro2d.step_2d": "hydro2d",
    "kernels.kernel_slope_over_r_sq": "hydro2d",
    "runner.run": "frames",
    "runner.frames_csv": "frames",
    "runner.to_json": "frames",
    "dynamics.means": "frames",
    "initial.ensemble_view": "frames",
    "hydro2d.spectral_arrays": "frames",
    "hydro1d.detect_blowup": "frames",
    "hydro1d.e_upper_bound": "frames",
    "hydro1d.smooth_lower_root": "frames",
    "kernels.kernel_eval": "frames",
}
LAYERS = ("pair", "step", "hydro2d", "potentials", "frames", "setup")


def layer_of(name: str) -> str:
    if name in LAYER_OF:
        return LAYER_OF[name]
    module = name.split(".", 1)[0]
    return {"diagnostics": "frames", "potentials": "potentials", "bench": "bench"}.get(module, "setup")


def _pair_entries(args) -> int:
    """N^2 for an ``alignment_force(x, u, m, kernel)`` call that runs the pair pass."""
    x, kernel = args[0], args[3]
    return 0 if isinstance(kernel, ConstantKernel) else x.shape[0] ** 2


def _span_name(fn) -> str:
    return f"{fn.__module__.removeprefix('flocklab.')}.{fn.__name__}"


class Tracer:
    """In-memory span recorder; ``op`` is the id stamped on new spans."""

    def __init__(self):
        self.names, self.parents, self.ops, self.starts, self.ends = [], [], [], [], []
        # per span name: work units counted, and the seconds of the calls that did them
        self.counts = Counter()
        self.work_s = defaultdict(float)
        self.op = -1
        self._stack = [-1]
        self._saved = []

    def wrap(self, name: str, fn, count=None):
        names, parents, ops, starts, ends = self.names, self.parents, self.ops, self.starts, self.ends
        stack = self._stack
        counts, work_s = self.counts, self.work_s
        perf = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parents.append(stack[-1])
            ops.append(self.op)
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = perf()
                stack.pop()
                if count is not None:
                    units = count(args)
                    if units:
                        counts[name] += units
                        work_s[name] += ends[sid] - starts[sid]

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a span of its own (a root span when nothing is open)."""
        return self.wrap(name, fn)(*args)

    def install(self):
        for module_name, attrs in BINDINGS.items():
            module = importlib.import_module(module_name)
            for attr in attrs:
                fn = getattr(module, attr)
                name = _span_name(fn)
                count = _pair_entries if name == "dynamics.alignment_force" else None
                self._saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn, count))
        self._saved.append((RunSummary, "to_json", RunSummary.to_json))
        RunSummary.to_json = self.wrap("runner.to_json", RunSummary.to_json)

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def aggregate(self):
        """Per span name: calls and self seconds; plus the wall time of the root spans."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        calls, self_s = Counter(), defaultdict(float)
        wall = 0.0
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            calls[name] += 1
            self_s[name] += dur - child[i]
            if self.parents[i] < 0:
                wall += dur
        return calls, self_s, wall

    def write(self, path):
        """Write every span as a tab-separated line; times in seconds from the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tparent\top\tstart_s\tend_s\n")
            for i, name in enumerate(self.names):
                fh.write(
                    f"{i}\t{name}\t{self.parents[i]}\t{self.ops[i]}"
                    f"\t{self.starts[i] - t0:.9f}\t{self.ends[i] - t0:.9f}\n"
                )
