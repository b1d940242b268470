"""Machine speed probe: scales measured times to one reference speed.

On a shared virtual machine the speed of the whole machine drifts by 10-30%
within seconds, and that drift is shared by all pure-Python work.  While
the probe is active, a ``SIGALRM`` interval timer runs a fixed pure-Python
kernel (exact fraction sums into a dict, the kind of work the package does)
every ``INTERVAL`` seconds, also in the middle of a long verdict.  A time
measured over ``[t0, t1]`` is then the interval minus the kernel samples
inside it, multiplied by ``REFERENCE_S / local kernel time``; the local
kernel time is the median of the samples in and around the interval.  The
result reads as seconds at the speed the machine had when ``REFERENCE_S``
was taken: it moves with any change to the package, and much less with the
machine's drift.
"""
from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

# Median kernel time on a 2-vCPU x86-64 VM (2.1 GHz), Python 3.11.7.
REFERENCE_S = 0.0021
INTERVAL = 0.05
# Samples used on each side of a measured interval, besides those inside it.
NEIGHBOURS = 2


def kernel() -> int:
    acc: dict[tuple[int, int], Fraction] = {}
    third = Fraction(1, 3)
    for i in range(250):
        key = (i % 13, i % 7)
        value = acc.get(key, Fraction(0)) + third * (i % 5) - Fraction(i % 3, 7)
        if value:
            acc[key] = value
        else:
            acc.pop(key, None)
    return len(sorted(acc.items()))


class SpeedProbe:
    """Samples the kernel on a timer between ``start`` and ``stop``."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.starts.append(t0)
        self.ends.append(t1)

    def start(self) -> None:
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._sample()

    def scale(self, t0: float, t1: float) -> float:
        """Reference-speed length of the work done in [t0, t1]."""
        first = bisect.bisect_left(self.starts, t0)
        last = bisect.bisect_right(self.ends, t1)
        busy = (t1 - t0) - sum(
            e - s for s, e in zip(self.starts[first:last], self.ends[first:last])
        )
        lo, hi = max(0, first - NEIGHBOURS), last + NEIGHBOURS
        window = [e - s for s, e in zip(self.starts[lo:hi], self.ends[lo:hi])]
        return busy * REFERENCE_S / statistics.median(window)
