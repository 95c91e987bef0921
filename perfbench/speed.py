"""Host-speed meter: a fixed reference kernel timed between units of work.

The host this benchmark was calibrated on changes speed by up to 2x for
tens of seconds at a time, and process CPU time changes with it.  In a
150 s probe that alternated this kernel with 1000-tick slice simulations,
the simulations' 10 s medians had an IQR/median of 0.61 while their ratio
to the kernel had 0.04.  Every host time the benchmark reports is
therefore scaled to the reference speed: multiplied by
``REFERENCE_S / (kernel time measured around it)``.

The kernel is the benchmark's own code, never the program's, so changes
to the program cannot change the yardstick.
"""
from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time

import numpy as np

# Fastest time of ``reference_kernel`` on the calibration host (Python
# 3.11.7, numpy 2.4.6, 2 vCPUs), so scaled times read as seconds there.
REFERENCE_S = 0.00032
SAMPLE_EVERY_S = 0.05
NEAREST = 6


def reference_kernel() -> int:
    """About 0.3 ms of interpreter loop and small numpy operations."""
    queue, credit, served = 0, 0.0, 0
    for _ in range(2000):
        credit += 0.73
        s = int(credit)
        if s > queue:
            s = queue
        queue += 1 - s
        credit -= s
        served += s
    a = np.arange(500, dtype=np.float64)
    for _ in range(20):
        a = np.floor(a * 1.0001 + 0.5)
    return served + int(a[-1])


class SpeedMeter:
    """Reference-kernel samples over a run, and the scale they imply.

    Inside ``sampling()`` a SIGALRM interval timer runs the kernel every
    ``SAMPLE_EVERY_S`` on the main thread, between bytecodes of whatever
    the program is doing, so even one long call is sampled throughout.
    ``busy`` accumulates the seconds spent sampling, which callers
    subtract from the intervals they time.
    """

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []
        self.busy = 0.0

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = time.perf_counter()
            reference_kernel()
            t1 = time.perf_counter()
            self.at.append((t0 + t1) / 2)
            self.took.append(t1 - t0)
            self.busy += time.perf_counter() - t0

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start: float, end: float) -> float:
        """Factor from host seconds in [start, end] to reference seconds.

        Uses the samples taken inside the interval, or the ``NEAREST``
        samples around it when fewer were taken inside.
        """
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        if hi - lo < NEAREST:
            mid = bisect.bisect_left(self.at, (start + end) / 2)
            lo = max(0, min(mid - NEAREST // 2, len(self.at) - NEAREST))
            hi = lo + NEAREST
        return REFERENCE_S / statistics.median(self.took[lo:hi])
