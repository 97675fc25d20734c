"""Host-speed calibration: convert program time into reference seconds.

The CPUs this benchmark was built on change speed by up to +-25% from one
second to the next (CPU time tracks wall time, so it is not steal), which
swamps any change to the program. While a Calibrator is active, a timer
interrupts the process every INTERVAL_S seconds and runs a fixed
snippet of interpreted integer arithmetic, the same for every workload.
Python runs signal handlers between bytecodes, so this works inside one
long library call too. The snippet allocates nothing the garbage
collector tracks, so it never pays for collecting the program's objects:
a change that makes the program allocate more shows in full in the
program's own time.

Each stretch of program time between two snippets is scaled by
(reference snippet time) / (mean time of the snippets on either side of
it). The result is reference seconds: the time the same work takes on a
CPU that runs the snippet in its reference time. Snippet time is never
counted as program time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array

INTERVAL_S = 0.02

clock = time.perf_counter

_ROWS = [[(i * j + 3) % 17 - 8 for j in range(8)] for i in range(8)]


def snippet() -> int:
    """Small-integer dot products, as in Bareiss elimination, on the
    preallocated _ROWS. It creates no object the garbage collector tracks.
    (A mix with small numpy slogdet calls tracked the host worse on
    search.)"""
    rows = _ROWS
    s = 0
    for r in range(80):
        other = rows[r & 7]
        for row in rows:
            for j in range(8):
                s += row[j] * other[j]
    return s


# Seconds one snippet takes on the reference CPU.
SNIPPET_REF_S = 5e-4


def host_factor() -> float:
    """Reference seconds per raw second now: SNIPPET_REF_S over the median
    time of 20 snippets run back to back."""
    times = []
    for _ in range(20):
        t0 = clock()
        snippet()
        times.append(clock() - t0)
    return SNIPPET_REF_S / statistics.median(times)


class Calibrator:
    """Context manager; reference_time() is valid once it has exited."""

    def __init__(self):
        self.starts = array("d")
        self.ends = array("d")
        self.factor: list[float] = []

    def _measure(self, signum=None, frame=None) -> None:
        t0 = clock()
        snippet()
        t1 = clock()
        self.starts.append(t0)
        self.ends.append(t1)

    def __enter__(self) -> "Calibrator":
        self._previous = signal.signal(signal.SIGALRM, self._measure)
        self._measure()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._measure()
        snip = [e - s for s, e in zip(self.starts, self.ends)]
        # factor[k] scales the stretch between snippet k-1 and snippet k
        self.factor = [0.0] + [
            2 * SNIPPET_REF_S / (snip[k - 1] + snip[k]) for k in range(1, len(snip))
        ]

    def reference_time(self, t0: float, t1: float) -> float:
        """Reference seconds of program time within [t0, t1]."""
        starts, ends, factor = self.starts, self.ends, self.factor
        total = 0.0
        k = max(1, bisect.bisect_right(starts, t0))
        while k < len(starts) and ends[k - 1] < t1:
            overlap = min(t1, starts[k]) - max(t0, ends[k - 1])
            if overlap > 0:
                total += overlap * factor[k]
            k += 1
        return total

    def snippet_seconds(self) -> float:
        """Raw seconds spent in snippets while the Calibrator was active
        (the snippet run on exit is not counted)."""
        return sum(e - s for s, e in zip(self.starts[:-1], self.ends[:-1]))

    def speed(self) -> float:
        """Median host speed over the calibrated stretch."""
        return statistics.median(self.factor[1:]) if len(self.factor) > 1 else 1.0
