"""Host speed, measured with a fixed reference kernel between soaks.

The benchmark shares a few cores of a host whose speed drifts by 20-50%
over seconds to minutes: on a 2-vCPU Xeon cloud host, 5-second medians
of a fixed pure-Python loop ranged 13-18 ms within one minute, and one
soak's serve-call median 2.9-4.4 ms between consecutive soaks of one
process.  That drift, not the program, set most of the run-to-run spread
of the end-to-end timings.  :class:`Calibrator` times a kernel that never
changes (it imports nothing from ``repro``) before the first soak and
after every soak.  A soak's slowdown is the mean of the two measurements
around it, and its timings are divided by it.  Over ten runs of one
workload, one factor per run left two to four times the spread that one
factor per soak left: the host changes speed within a run.

The kernel mixes what a soak does: interpreter-bound Python (dict
updates, small loops), many small NumPy calls, and 1024-row gathers and
sorts over a 50k-row table.  Garbage collection is off while it runs, so
the size of the program's heap cannot slow it.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

import numpy as np

#: Kernel seconds at the reference host speed (about its median on the
#: 2-vCPU Xeon host above).  A fixed constant: it sets the scale of the
#: reported numbers, never their run-to-run spread.
REFERENCE_S = 0.019

#: kernel timings per measurement; the median is kept
REPEATS = 5


class Calibrator:
    """Owns the kernel's inputs, made once from a fixed seed."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._table = rng.random((50_000, 16), dtype=np.float32)
        self._keys = rng.integers(0, 50_000, 1024)
        self._small = rng.random(256)

    def _kernel(self) -> int:
        counts: dict[int, int] = {}
        digits = 0
        for i in range(20_000):
            counts[i & 511] = counts.get(i & 511, 0) + i
            digits += len(str(i))
        for _ in range(600):
            a = self._small * 2.0
            np.argmax(a)
            a[a > 0.5].sum()
            np.concatenate([a, a])
        for _ in range(6):
            self._table[self._keys].sum()
            np.argsort(self._table[:, 0])
            np.unique(self._keys)
        return digits + len(counts)

    def slowdown(self) -> float:
        """Median kernel time now ÷ :data:`REFERENCE_S` (> 1: host slower)."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(REPEATS):
                t0 = perf_counter()
                self._kernel()
                times.append(perf_counter() - t0)
        finally:
            if was_enabled:
                gc.enable()
        return statistics.median(times) / REFERENCE_S
