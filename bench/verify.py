"""Checks that every benchmark operation produced a trustworthy result.

``all_checks_pass`` alone is not trusted: a run that stops early can
still report PASS.  So each operation is also checked for its expected
verdict, its expected outcome (blow-up bracket inside [0, T], or a last
frame at t = T), the presence of every bound check its template names,
and outputs that agree with the in-memory result.  Riccati-oracle
operations are compared with the closed-form solution of
e' = -e (e - K) - A, reimplemented here from that equation.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

RICCATI_TOL = 1e-8
# reference frames are compared per value: |a - b| <= REF_RTOL * max(|b|, column scale)
REF_RTOL = 1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def completed_steps(cfg, summary) -> int:
    """RK4 steps accepted before the run ended (a rejected blow-up step is not counted)."""
    if summary.blowup:
        return int(round(summary.blowup[0] / cfg.dt))
    return cfg.n_steps


def verify_op(tpl, cfg, result, csv_text: str, json_text: str) -> list:
    """Return the problems found with one operation; an empty list means it verified."""
    summary = result.summary
    frames = result.frames
    problems = []
    for check in summary.bound_checks:
        if not check.max_violation <= check.tol:
            problems.append(f"bound check {check.name} failed: {check.max_violation!r} > {check.tol!r}")
    missing = set(tpl.checks) - {c.name for c in summary.bound_checks}
    if missing:
        problems.append(f"bound checks missing: {sorted(missing)}")
    verdict = getattr(summary.threshold, "verdict", None)
    if verdict != tpl.verdict:
        problems.append(f"verdict {verdict!r}, expected {tpl.verdict!r}")

    if tpl.blowup:
        if not summary.blowup:
            problems.append("expected a blow-up, run completed")
        else:
            lo, hi = summary.blowup
            if not 0.0 <= lo <= hi <= cfg.t_final:
                problems.append(f"blow-up bracket [{lo}, {hi}] outside [0, {cfg.t_final}]")
    elif summary.blowup:
        problems.append(f"unexpected blow-up in {summary.blowup}")
    elif not frames or abs(frames[-1].t - cfg.t_final) > 1e-9 * max(1.0, cfg.t_final):
        last = frames[-1].t if frames else None
        problems.append(f"last frame at t = {last}, expected T = {cfg.t_final}")

    if csv_text.count("\n") != len(frames) + 1:
        problems.append("frames CSV row count differs from the frame count")
    payload = json.loads(json_text)
    if payload["n_frames"] != len(frames) or payload["n_frames"] != summary.n_frames:
        problems.append("summary JSON frame count differs from the frames")
    if [c["pass"] for c in payload["bound_checks"]] != [c.passed for c in summary.bound_checks]:
        problems.append("summary JSON check outcomes differ from the run")

    if tpl.riccati_oracle:
        worst = riccati_worst_error(cfg, frames)
        if not worst <= RICCATI_TOL:
            problems.append(f"min_e deviates from the Riccati closed form by {worst:.3e}")
    return problems


def riccati_exact(t: float, e0: float, K: float, A: float) -> float:
    """Solution of e' = -(e - r_hi)(e - r_lo), r_hi + r_lo = K, r_hi r_lo = A, for K^2/4 > A.

    w = (e - r_hi) / (e - r_lo) obeys w' = -(r_hi - r_lo) w.
    """
    disc = K * K / 4.0 - A
    if not disc > 0.0:
        raise ValueError("the benchmark's Riccati oracle covers the two-root case only")
    gap = math.sqrt(disc)
    r_hi, r_lo = K / 2.0 + gap, K / 2.0 - gap
    w = (e0 - r_hi) / (e0 - r_lo) * math.exp(-2.0 * gap * t)
    return (r_hi - r_lo * w) / (1.0 - w)


def riccati_worst_error(cfg, frames) -> float:
    """Largest |min_e - e(t)| over the frames of a one-characteristic linear-velocity run.

    The single node sits at x = 0 with u = 0, so U'' = a and phi*rho = k m0
    stay constant and e0 = slope + k m0.
    """
    K = cfg.kernel.value * cfg.m0
    A = cfg.potential.a
    e0 = cfg.initial.amplitude + K
    return max(abs(f.min_e - riccati_exact(f.t, e0, K, A)) for f in frames)


def _csv_rows(text: str) -> list:
    return [[float(v) for v in line.split(",")] for line in text.splitlines() if not line.startswith("#")]


def compare_reference(name: str, csv_text: str):
    """Compare frames with bench/reference/<name>.csv.

    Returns ``(problems, bitwise_equal)``.  NaN must match NaN; every other
    value must agree within REF_RTOL of the larger of its magnitude and the
    largest magnitude in its reference column.
    """
    ref_text = (REFERENCE_DIR / f"{name}.csv").read_text(encoding="utf-8")
    if ref_text == csv_text:
        return [], True
    ref, got = _csv_rows(ref_text), _csv_rows(csv_text)
    if ref_text.splitlines()[0] != csv_text.splitlines()[0] or len(ref) != len(got):
        return [f"reference {name}: columns or frame count differ"], False
    problems = []
    for col in range(len(ref[0])):
        scale = max((abs(r[col]) for r in ref if not math.isnan(r[col])), default=0.0)
        for row, (r, g) in enumerate(zip(ref, got)):
            a, b = g[col], r[col]
            if math.isnan(a) or math.isnan(b):
                ok = math.isnan(a) and math.isnan(b)
            else:
                ok = abs(a - b) <= REF_RTOL * max(abs(b), scale)
            if not ok:
                problems.append(f"reference {name}: row {row} column {col}: {a!r} vs {b!r}")
                break
    return problems, False
