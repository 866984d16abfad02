"""Host-speed reference: a fixed numpy kernel timed between operations.

The benchmark host switches between speeds every few seconds to every few
minutes, and its slow regime is up to 1.7 times slower than its fast one
(see the README), so raw wall times of identical work differ by that
factor between runs.  The benchmark therefore times this kernel every
``INTERVAL_S`` seconds, between operations and inside long ones, and
reports every time scaled to a host on which one reading takes exactly
``NOMINAL_S``: see :class:`HostClock`.

The kernel mixes what lpalg spends its time on: small and medium complex
matmuls, elementwise numpy on small arrays, 2 x 2 products of the kind
``IsometricAction.apply`` makes, and plain Python dict updates.  It never
calls lpalg, so a change to lpalg leaves it unchanged.  Its inputs are drawn
once from a fixed seed.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

NOMINAL_S = 0.004  # one reading on the reference host, by definition
KERNEL_REPEATS = 3  # kernel runs per reading; the reading is their median
INTERVAL_S = 0.5  # least work time between two readings

_rng = np.random.default_rng(12345)
_MATRICES = [
    (_rng.standard_normal((d, d)) + 1j * _rng.standard_normal((d, d))) / d
    for d in (4, 8, 16, 32, 64, 128)
]
_SMALL = [_rng.standard_normal((2, 2)) + 0j for _ in range(8)]


def _kernel() -> float:
    acc = 0.0
    for a in _MATRICES:
        x = np.ones((a.shape[0], 6), dtype=complex)
        for _ in range(8):
            y = a @ x
            mags = np.abs(y)
            tops = mags.max(axis=0)
            x = (y / tops) * (mags / tops) ** 0.5
        acc += float(tops[0])
    for i in range(300):
        u = _SMALL[i % 8]
        acc += float((u @ _SMALL[(i + 1) % 8] @ u.conj().T)[0, 0].real)
    counts: dict = {}
    for i in range(4000):
        counts[i % 61] = counts.get(i % 61, 0) + i
    return acc


def reading() -> float:
    """Seconds one kernel run takes now: the median of ``KERNEL_REPEATS``."""
    times = []
    for _ in range(KERNEL_REPEATS):
        start = perf_counter()
        _kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


class HostClock:
    """Work time, and its scaling to reference seconds.

    Work time is wall time minus the time spent taking readings, so readings
    taken inside an operation do not count towards it.  ``tick()`` takes a
    reading when ``INTERVAL_S`` of work time has passed since the last one;
    the caller ticks between operations and from inside long ones, and reads
    around short timed sections and at the end.  The work
    time between two readings is scaled by ``NOMINAL_S`` over the mean of
    the two.
    """

    def __init__(self):
        self.paused = 0.0
        self.bounds: list = []  # work time of each reading
        self.readings: list = []
        self.read()

    def now(self) -> float:
        return perf_counter() - self.paused

    def read(self):
        """Take a reading now."""
        start = perf_counter()
        value = reading()
        self.paused += perf_counter() - start
        self.bounds.append(self.now())
        self.readings.append(value)

    def tick(self):
        if self.now() - self.bounds[-1] >= INTERVAL_S:
            self.read()

    def scaled(self, start: float, end: float) -> float:
        """Reference seconds spent in the work-time interval [start, end)."""
        total = 0.0
        k = max(bisect.bisect_right(self.bounds, start) - 1, 0)
        while k + 1 < len(self.bounds) and self.bounds[k] < end:
            overlap = min(end, self.bounds[k + 1]) - max(start, self.bounds[k])
            if overlap > 0.0:
                total += overlap * NOMINAL_S / (0.5 * (self.readings[k] + self.readings[k + 1]))
            k += 1
        return total
