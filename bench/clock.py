"""Op timing in reference seconds.

The benchmark runs on small shared machines whose CPU speed drifts by
up to 2x within seconds as neighbours come and go, and where the
process is now and then descheduled for some milliseconds; wall times
of identical work then spread by 20-45% between runs. Process CPU time
leaves out the descheduled time but not the drift. So while a run
measures, a timer signal runs a fixed calibration kernel (interpreted
Python plus small numpy products, the same mix as capsched's hot paths)
every CALIBRATE_EVERY_S, inside whatever code is running, and times it
in process CPU time. An op is a span (wall start, wall end, process CPU
seconds). Its time is its CPU time minus that of the calibrations inside
it, scaled by REFERENCE_KERNEL_S / (the median kernel CPU time of the
calibrations during it). A change that makes capsched do more work shows
at full size; a neighbour that slows or preempts the process mostly
cancels. capsched computes and never waits, so CPU time is all of its
time. Unscaled wall and CPU times are reported next to the scaled ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

REFERENCE_KERNEL_S = 0.00125  # kernel time that defines one reference second
CALIBRATE_EVERY_S = 0.05
KERNEL_REPEATS = 2
WINDOW_S = 0.025

_X = np.linspace(0.0, 1.0, 32)


def _kernel() -> float:
    acc = 0.0
    table: dict[int, float] = {}
    for i in range(1000):
        acc += float(_X @ _X) * 1e-3 + (i % 7)
        table[i & 127] = acc
    return acc


class Clock:
    """Calibrations over one run, and the scaling they imply."""

    def __init__(self) -> None:
        # (wall start, wall end, CPU seconds, kernel CPU seconds); each
        # calibration appends one tuple, so a calibration interrupting
        # another cannot misalign them.
        self.samples: list[tuple[float, float, float, float]] = []
        self._busy = False

    def calibrate(self) -> None:
        if self._busy:  # a timer signal arrived while calibrating
            return
        self._busy = True
        try:
            start, cpu_start = time.perf_counter(), time.process_time()
            runs = []
            for _ in range(KERNEL_REPEATS):
                c0 = time.process_time()
                _kernel()
                runs.append(time.process_time() - c0)
            self.samples.append((start, time.perf_counter(),
                                 time.process_time() - cpu_start, statistics.median(runs)))
        finally:
            self._busy = False

    @property
    def kernel_s(self) -> list[float]:
        return [s[3] for s in self.samples]

    def _columns(self):
        ordered = sorted(self.samples, key=lambda s: s[1])
        return tuple([s[i] for s in ordered] for i in range(4))

    @contextmanager
    def sampling(self, calibrate=None):
        """Calibrate every CALIBRATE_EVERY_S until the block ends."""
        calibrate = calibrate or self.calibrate
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: calibrate())
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def _inside(self, start: float, end: float):
        """(wall, CPU) seconds of the calibrations within [start, end]."""
        starts, ends, cpus, _ = self._columns()
        lo = bisect.bisect_left(ends, start)
        hi = bisect.bisect_right(starts, end)
        wall = cpu = 0.0
        for i in range(lo, hi):
            overlap = max(0.0, min(end, ends[i]) - max(start, starts[i]))
            wall += overlap
            cpu += cpus[i] * overlap / max(ends[i] - starts[i], 1e-9)
        return wall, cpu

    def wall(self, start: float, end: float, cpu_s: float) -> float:
        """Wall time of the span minus the calibrations inside it."""
        return end - start - self._inside(start, end)[0]

    def cpu(self, start: float, end: float, cpu_s: float) -> float:
        """CPU time of the span minus the calibrations inside it."""
        return cpu_s - self._inside(start, end)[1]

    def scaled(self, start: float, end: float, cpu_s: float) -> float:
        """Reference seconds for the span.

        The kernel time is the median of the calibrations that end within
        WINDOW_S of the span, or the nearest calibration if none does:
        the speed of the machine while the span ran, as near as the
        samples show it.
        """
        _, ends, _, kernel_s = self._columns()
        lo = bisect.bisect_left(ends, start - WINDOW_S)
        hi = bisect.bisect_right(ends, end + WINDOW_S)
        if lo < hi:
            kernel = statistics.median(kernel_s[lo:hi])
        else:
            i = min(lo, len(ends) - 1)
            if i > 0 and start - ends[i - 1] < ends[i] - end:
                i -= 1
            kernel = kernel_s[i]
        return self.cpu(start, end, cpu_s) * REFERENCE_KERNEL_S / kernel
