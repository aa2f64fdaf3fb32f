"""The benchmark's measurements; ``bench/run.py`` is the entry point.

Imported only after ``run.py`` has pinned the BLAS threads and put this
checkout's ``src/`` first on the import path.
"""

import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from flocklab import config, runner
import hostspeed
from layer_timings import layer_timings
from spans import LAYERS, Tracer, layer_of
from verify import REFERENCE_DIR, compare_reference, completed_steps, verify_op
from workloads import WORKLOADS, config_text, op_stream, set_up

BENCH_DIR = Path(__file__).resolve().parent
RUN_PY = BENCH_DIR / "run.py"
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# fresh processes timed for setup_s, spread evenly over the timed loop so that
# they meet the host as busy as the operations do; the median is reported
SETUP_PROCESSES = 15
# traced cycles per run: ``--seconds`` // TRACE_SECONDS_PER_CYCLE, at least 1
TRACE_SECONDS_PER_CYCLE = 5


def measure_setup(texts) -> float:
    """Seconds one fresh process takes to import flocklab and set up ``texts``."""
    proc = subprocess.run(
        [sys.executable, str(RUN_PY), "--setup-child"],
        input=json.dumps(texts), capture_output=True, text=True, timeout=120, cwd=ROOT, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


@dataclass
class Op:
    template: str
    elapsed: float
    steps: int = 0
    frames: int = 0
    blowup: bool = False
    checks_failed: int = 0
    problems: list = field(default_factory=list)
    csv_text: str = ""


def _simulate(cfg):
    result = runner.run(cfg)
    return result, result.csv(), result.summary.to_json()


def run_op(tpl, text, tracer=None) -> Op:
    """Run and verify one operation; parsing the config is not timed."""
    cfg = config.parse_config(text)
    started = time.perf_counter()
    try:
        if tracer is None:
            result, csv_text, json_text = _simulate(cfg)
        else:
            with tracer:
                result, csv_text, json_text = tracer.span("bench.op", _simulate, cfg)
    except Exception:  # an operation that raises is a failed operation, not a crash
        return Op(tpl.name, time.perf_counter() - started, problems=[traceback.format_exc()])
    elapsed = time.perf_counter() - started
    summary = result.summary
    return Op(
        template=tpl.name,
        elapsed=elapsed,
        steps=completed_steps(cfg, summary),
        frames=summary.n_frames,
        blowup=bool(summary.blowup),
        checks_failed=sum(not c.passed for c in summary.bound_checks),
        problems=verify_op(tpl, cfg, result, csv_text, json_text),
        csv_text=csv_text,
    )


def canonical_op(workload) -> tuple:
    """Run the workload's canonical config and compare it with the committed frames."""
    tpl = workload.template(workload.canonical)
    op = run_op(tpl, config_text(tpl, None))
    if op.problems:
        return op, False
    problems, bitwise = compare_reference(workload.name, op.csv_text)
    op.problems += problems
    return op, bitwise


def _report_problems(ops):
    for op in ops:
        for problem in op.problems:
            print(f"FAILED {op.template}: {problem}", file=sys.stderr)


def measure_end_to_end(workload, seed: int, seconds: float):
    """Closed-loop timed run with tracing off; timings on the probe's scale (see hostspeed.py)."""
    stream = op_stream(workload, seed)
    cycle = len(workload.cycle())
    first = [next(stream) for _ in range(cycle)]
    texts = [text for _, text in first]

    ops = [run_op(tpl, text) for tpl, text in first]  # warm-up, not timed
    ops.append(canonical_op(workload)[0])
    gc.collect()
    # a probe runs before the first operation and after every operation and set-up;
    # after[i] is the index of the probe taken just after timed[i]
    timed, after, probes, setup_raw = [], [], [hostspeed.probe()], []
    started = time.perf_counter()
    while (now := time.perf_counter() - started) < seconds:
        if len(setup_raw) < SETUP_PROCESSES and now >= len(setup_raw) * seconds / SETUP_PROCESSES:
            setup_raw.append((measure_setup(texts), len(probes)))
            probes.append(hostspeed.probe())
        for _ in range(cycle):
            timed.append(run_op(*next(stream)))
            after.append(len(probes))
            probes.append(hostspeed.probe())
    ops += timed

    raw = [op.elapsed for op in timed]
    latencies = [op.elapsed * hostspeed.scale(probes, j) for op, j in zip(timed, after)]
    setup_samples = [s * hostspeed.scale(probes, j) for s, j in setup_raw]
    steps = sum(op.steps for op in timed)
    metrics = {
        "run_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
        "run_ms_p90": (statistics.quantiles(latencies, n=10)[-1] * 1e3, "ms"),
        "steps_per_s": (steps / sum(latencies), "1/s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    failed = sum(bool(op.problems) for op in ops)
    print(f"workload {workload.name}, seed {seed}: {len(timed)} timed ops in whole cycles of {cycle},"
          f" {sum(raw):.2f} s of operations")
    print(f"  fail_ratio {failed / len(ops):.4g} ({failed} of {len(ops)} ops, warm-up and canonical included)")
    print(f"  run_ms_p50 and run_ms_p90 over {len(timed)} samples, setup_s over {len(setup_samples)} processes")
    print(f"  probe: median {statistics.median(probes) * 1e3:.3f} ms over {len(probes)} probes,"
          f" reference {hostspeed.PROBE_REF_S * 1e3:.3f} ms")
    print(f"  raw wall time: run_ms_p50 {statistics.median(raw) * 1e3:.2f} ms,"
          f" run_ms_p90 {statistics.quantiles(raw, n=10)[-1] * 1e3:.2f} ms,"
          f" steps_per_s {steps / sum(raw):.1f} 1/s,"
          f" setup_s {statistics.median(s for s, _ in setup_raw):.4f} s")
    for tpl in workload.templates:
        own = [op.elapsed * 1e3 for op in timed if op.template == tpl.name]
        print(f"  {tpl.name}: raw best {min(own):.1f} ms, median {statistics.median(own):.1f} ms over {len(own)} ops")
    return ops, metrics


# spans reported with their call count and self time, then those with self time only
COUNTED_SPANS = (
    "dynamics.alignment_force",
    "kernels.kernel_eval_sq",
    "dynamics.step_rk4",
    "hydro1d.step_1d",
    "hydro2d.step_2d",
    "kernels.kernel_slope_over_r_sq",
)
TIMED_SPANS = (
    "hydro2d.spectral_arrays",
    "dynamics.conv_phi",
    "diagnostics.energy",
    "diagnostics.fluctuations",
    "diagnostics.particle_energy_support",
    "diagnostics.lyapunov_v",
    "diagnostics.perturbed_particle_energy_max",
    "diagnostics.pair_functional_f",
    "runner.run",
    "runner.frames_csv",
    "runner.to_json",
    "config.parse_config",
    "initial.build_state",
    "constants.constants_report",
    "runner.classify",
)


def measure_layers(workload, seed: int, seconds: float):
    """Traced run: each operation once untraced and once traced, then per-layer metrics."""
    stream = op_stream(workload, seed)
    cycle = len(workload.cycle())
    first = [next(stream) for _ in range(cycle)]
    ops = [run_op(tpl, text) for tpl, text in first]  # warm-up, not traced
    canonical, bitwise = canonical_op(workload)
    ops.append(canonical)

    tracer = Tracer()
    with tracer:
        for op_id, (_, text) in enumerate(first):
            tracer.op = op_id
            tracer.span("bench.setup", set_up, text)
    plain_s = traced_s = 0.0
    traced = []
    for op_id in range(cycle, cycle * (1 + max(1, int(seconds) // TRACE_SECONDS_PER_CYCLE))):
        tpl, text = next(stream)
        plain = run_op(tpl, text)
        tracer.op = op_id
        op = run_op(tpl, text, tracer)
        plain_s += plain.elapsed
        traced_s += op.elapsed
        ops += [plain, op]
        traced.append(op)

    calls, self_s, wall = tracer.aggregate()
    metrics = {}
    for name in COUNTED_SPANS:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (self_s[name], "s")
    for name in TIMED_SPANS:
        metrics[f"{name}.self_s"] = (self_s[name], "s")
    pairs = tracer.counts["dynamics.alignment_force"]
    metrics["dynamics.alignment_force.pair_entries"] = (pairs, "count")
    pair_s = tracer.work_s["dynamics.alignment_force"]
    metrics["dynamics.alignment_force.ns_per_pair"] = (pair_s / pairs * 1e9 if pairs else 0.0, "ns")
    metrics["potentials.self_s"] = (sum(v for k, v in self_s.items() if k.startswith("potentials.")), "s")
    metrics["diagnostics.frames"] = (sum(op.frames for op in traced), "count")
    metrics["runner.blowups"] = (sum(op.blowup for op in traced), "count")
    metrics["runner.checks_failed"] = (sum(op.checks_failed for op in traced), "count")
    metrics["runner.frames_bitwise_equal"] = (int(bitwise), "count")
    metrics["trace.overhead_ratio"] = (traced_s / plain_s - 1.0, "ratio")
    shares = dict.fromkeys(LAYERS, 0.0)
    for name, value in self_s.items():
        layer = layer_of(name)
        if layer in shares:
            shares[layer] += value / wall
    for layer, share in shares.items():
        metrics[f"trace.share.{layer}"] = (share, "ratio")
    for name, value in layer_timings(workload.name, seed).items():
        metrics[name] = (value, "us")

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload.name}.tsv"
    tracer.write(spans_path)
    top = max(shares, key=shares.get)
    print(
        f"workload {workload.name}, seed {seed}: {len(traced)} ops traced, {len(tracer.names)} spans"
        f" written to {spans_path.relative_to(ROOT)}; largest self-time share: {top} ({shares[top]:.1%})"
    )
    return ops, metrics


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown"


def _git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, check=False,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},  # not a repository around the checkout
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def provenance() -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "l2_cache": _read_text(cache / "index2" / "size"),
        "l3_cache": _read_text(cache / "index3" / "size"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "loadavg_start": list(os.getloadavg()),
    }


def run_workload(name: str, seed: int, seconds: float, trace: int) -> int:
    prov = provenance()
    workload = WORKLOADS[name]
    measure = measure_layers if trace else measure_end_to_end
    ops, metrics = measure(workload, seed, seconds)
    _report_problems(ops)
    prov["loadavg_end"] = list(os.getloadavg())
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:<48} {value:>16.6g} {unit}")
    print("provenance " + json.dumps(prov))
    failed = sum(bool(op.problems) for op in ops)
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: float, out: Path) -> int:
    """Every workload, traced and untraced, each in a fresh process; writes one BENCH file."""
    report = {"seed": seed, "seconds": seconds, "provenance": provenance(), "workloads": {}}
    status = 0
    for name in WORKLOADS:
        entry = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(RUN_PY), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT, check=False)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0:
                status = 1
            if len(lines) >= 2 and lines[-1].startswith("{"):
                entry["per_layer" if trace else "end_to_end"] = json.loads(lines[-1])
                entry[f"provenance_trace{trace}"] = json.loads(lines[-2].removeprefix("provenance "))
        report["workloads"][name] = entry
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"\n{'workload':<20} {'metric':<14} {'value':>14} unit")
    for name, entry in report["workloads"].items():
        result = entry.get("end_to_end", {"metrics": {}, "failed": "?", "attempted": "?"})
        for metric, m in result["metrics"].items():
            print(f"{name:<20} {metric:<14} {m['value']:>14.6g} {m['unit']}")
        print(f"{name:<20} {'fail_ratio':<14} {result['failed']:>7} of {result['attempted']} ops")
    print(f"wrote {out}")
    return status


def write_reference() -> int:
    """Regenerate bench/reference/<workload>.csv from the canonical configs."""
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        tpl = workload.template(workload.canonical)
        op = run_op(tpl, config_text(tpl, None))
        if op.problems:
            _report_problems([op])
            return 1
        (REFERENCE_DIR / f"{workload.name}.csv").write_text(op.csv_text, encoding="utf-8")
        print(f"wrote {REFERENCE_DIR / workload.name}.csv ({op.frames} frames)")
    return 0
