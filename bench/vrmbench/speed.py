"""Host speed reference for the end-to-end times.

Shared hosts change speed under the benchmark.  On a shared 2-core Xeon
VM (2.1 GHz base clock), a fixed numpy/Python loop toggles between two
speeds about 1.6x apart, and the share of time spent at the fast one
drifts over minutes, so raw wall times of the same code differ by 30% or
more between runs a few minutes apart.  Every timed unit (the import, a
set-up, a distillation run) is therefore bracketed by a short run of a
fixed reference kernel that uses no ``vrm`` code, and its wall time is
scaled to the kernel's nominal speed:

    scaled = measured * REFERENCE_NOMINAL_S / mean(reference before, after)

A change to ``vrm`` leaves the kernel alone, so it moves the scaled times
exactly as it moves the raw ones.  Raw times are recorded next to them.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

# one kernel block at about the base clock of that VM; scaled times are
# wall times at this speed
REFERENCE_NOMINAL_S = 2.0e-4
REFERENCE_SECONDS = 0.05

_M = np.linspace(0.0, 1.0, 32 * 32).reshape(32, 32)
_V = np.linspace(-1.0, 1.0, 32)


def _block():
    # small matmuls, elementwise numpy and interpreter work, like a step
    for _ in range(20):
        np.maximum(_M @ _M, 0.5).sum(axis=1)
        e = np.exp(_V)
        e / e.sum()
        [x * 2 for x in range(20)]


def reference_time(seconds: float = REFERENCE_SECONDS) -> float:
    """Mean wall time of one kernel block, run for about ``seconds``."""
    n = 0
    start = perf_counter()
    while True:
        _block()
        n += 1
        elapsed = perf_counter() - start
        if elapsed >= seconds:
            return elapsed / n


class SpeedGauge:
    """Brackets consecutive timed units with reference measurements."""

    def __init__(self, measure=reference_time):
        self._measure = measure
        self.last = measure()
        self.scales: list[float] = []

    def now(self) -> float:
        """Scale for a unit that just ended and had no reference before it."""
        return REFERENCE_NOMINAL_S / self.last

    def bracket(self) -> float:
        """Scale for the unit timed since the previous measurement."""
        before, self.last = self.last, self._measure()
        scale = REFERENCE_NOMINAL_S / ((before + self.last) / 2.0)
        self.scales.append(scale)
        return scale
