"""Host-speed probe: a fixed kernel each rep times right after its timed region.

A shared host's speed can drift by up to a third over minutes (seen on the
2-CPU VM of the README's baselines), and the drift hits every process
alike (CPU time tracks wall time), so no number of reps removes it.  The
runner scales each rep's times to the speed at which this kernel takes
:data:`~benchmarks.pipeline.spec.REFERENCE_PROBE_S`.  The kernel mixes the
pipeline's three kinds of work — float32 gathers and maxima over a wide
plane (settle propagation), many small-array NumPy calls (Gibbs sweeps)
and interpreter-bound dictionary work (lint passes) — and never touches
``repro``, so no change to the library moves it.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["probe_s"]


def _kernel() -> float:
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    plane = rng.random((400, 4096), dtype=np.float32)
    changed = plane > 0.5
    best = np.full_like(plane, -np.inf)
    for _ in range(3):
        src = rng.integers(0, 400, size=400)
        cand = np.where(changed[src], plane[src] + np.float32(0.125), -np.inf)
        np.maximum(best, cand, out=best)
    x = rng.standard_normal((6, 20))
    grid = np.linspace(-1.0, 1.0, 64)
    for _ in range(5000):
        f = x[:, 0] @ x
        mu = x @ f
        np.argmax(-0.5 * (grid[None, :] - mu[:, None]) ** 2, axis=1)
    counts: dict[int, int] = {}
    for i in range(250000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return time.perf_counter() - t0


def probe_s() -> float:
    """Fastest of five timings of the kernel: this host's speed now.

    The minimum drops sub-second stalls that the rep's seconds-long timed
    region averages out; a slow phase of the host slows every round, so
    it still shows.
    """
    return min(_kernel() for _ in range(5))
