"""The host's speed during a run, sampled by a fixed reference kernel.

The shared VM the benchmark was made on switches between a fast and a slow
speed (about 1.7x apart) for stretches of seconds to minutes, in wall time
and CPU time alike, so two runs of the same code can differ by up to 70%.
Inside ``HostClock`` a timer signal runs a small fixed kernel every
``INTERVAL_S``:
interpreter work and small numpy calls, nothing from hawkes_rkhs.  The
signal handler runs between bytecodes, so the samples fall inside long
iterations too and see the same host speed as the code around them.  An
iteration's time with the kernel's time taken out, divided by the kernel's
mean time over the same stretch, is its time in reference units: a change of
the host's speed moves both alike, a change to the package only the first.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.05

_LAGS = np.arange(64.0)


def kernel() -> float:
    """About 0.7 ms of work on the host the benchmark was made on."""
    total, table = 0.0, {}
    for i in range(2_000):
        total += (i * 0.5) % 7.0
        table[i & 255] = total
    for i in range(40):
        total += float(np.sum(np.exp(-0.1 * _LAGS[i % 32:])))
    return total


class HostClock:
    """Runs ``kernel`` from SIGALRM every ``interval`` seconds while entered,
    and sums its samples and their time."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples = 0
        self.kernel_s = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self.kernel_s += time.perf_counter() - t0
        self.samples += 1

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def unit_s(self) -> float:
        """Mean time of one kernel sample so far; one reference unit."""
        if self.samples == 0:  # a stretch shorter than one interval
            t0 = time.perf_counter()
            kernel()
            return time.perf_counter() - t0
        return self.kernel_s / self.samples
