"""A fixed probe of the host's speed, to put every timing on one scale.

The development host runs the same code at speeds that differ by up to
1.9x from one ten-second stretch to the next (contention on the shared
physical host), so raw wall times of a 30 s run moved by up to 30% from
run to run.  The timed loop runs this probe between operations.  It is
fixed work that does not import flocklab, mixing what the operations do:
interpreted Python, numpy calls on small arrays, and passes over a 1 MiB
array (with at most one temporary of its size, so it adds about 2 MiB to
``peak_rss_mb``).  A timing is scaled by ``PROBE_REF_S`` over the median
of the probe times taken within ``WINDOW`` probes of it, so a change to
flocklab shows in full while a busy stretch of the host, which slows the
probe too, cancels.  ``PROBE_REF_S`` is about the probe's median time
between operations on the development host, so scaled timings stay near
the raw ones.  See bench/README.md, "Host speed".
"""

from __future__ import annotations

import statistics
import time

import numpy as np

PROBE_REF_S = 5.0e-3
WINDOW = 2

_SMALL = np.linspace(0.0, 1.0, 64)
_LARGE = np.linspace(0.0, 1.0, 128 * 1024)  # 1 MiB of float64


def _work() -> float:
    total = 0
    for i in range(15000):
        total += i * i % 7
    a = _SMALL
    for _ in range(600):
        a = np.sqrt(a * a + 1.0)
    for _ in range(16):
        total += float(np.multiply(_LARGE, 0.5).sum())
    return total + float(a[-1])


def probe() -> float:
    """Seconds the fixed probe takes now."""
    started = time.perf_counter()
    _work()
    return time.perf_counter() - started


def scale(probes: list, after: int) -> float:
    """Factor that puts a timing taken just before ``probes[after]`` on the reference scale."""
    near = probes[max(0, after - WINDOW) : after + WINDOW]
    return PROBE_REF_S / statistics.median(near)
