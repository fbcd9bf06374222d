"""Correction of measured times for the momentary speed of a shared host.

A shared host runs one thread at a speed that changes from second to second:
a fixed pure-Python loop on the machine the benchmark was defined on took
8.1 ms in some seconds and 12.5 ms in others, and stayed in either state for
anything from a second to well over a minute.  The process's CPU time grows
just as much as its wall time, so neither can be read as the program's cost.

So the benchmark times a fixed reference loop, which does not touch
confseed, between ops: after each op, once for every 10 ms the op took (at
least once, at most twenty times), and three times before an op when the
last sample is more than 20 ms old, as after a slow output check.  An op's
corrected time is its wall time divided by the host's slowdown around it:
the mean time of the reference samples taken within a quarter of a second
of the op, over ``REFERENCE_S``.  The corrected time reads as the op's wall
time on a host running at the speed where the reference loop takes
``REFERENCE_S``.  Garbage collection is off while the reference loop runs,
so the size of the program's heap does not change its time.
"""
from __future__ import annotations

import gc
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

# a fixed scale, near the reference loop's usual time on the machine the
# benchmark was defined on (2 cores, Intel Xeon, Python 3.11.7)
REFERENCE_S = 1.0e-3
SAMPLE_EVERY_S = 0.01
MAX_SAMPLES = 20
WINDOW_S = 0.25


def reference():
    """Fixed work of the kind confseed does: Fractions, tuples and a dict."""
    total = Fraction(0)
    table = {}
    for i in range(1, 120):
        total += Fraction(i, i + 1) * Fraction(3, 2 * i + 1)
        table[i, i % 7] = total.numerator % 97
    return total, len(table)


class HostClock:
    """Reference samples over a run, and the slowdown they show."""

    def __init__(self):
        self.starts: list[float] = []
        self.took: list[float] = []

    def sample(self, busy_s: float) -> None:
        """Time the reference loop once per SAMPLE_EVERY_S of ``busy_s``."""
        count = min(MAX_SAMPLES, max(1, round(busy_s / SAMPLE_EVERY_S)))
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                start = perf_counter()
                reference()
                self.took.append(perf_counter() - start)
                self.starts.append(start)
        finally:
            if enabled:
                gc.enable()

    def refresh(self) -> None:
        """Sample again when more than two sampling steps passed since the last."""
        if perf_counter() - self.starts[-1] - self.took[-1] > 2 * SAMPLE_EVERY_S:
            self.sample(3 * SAMPLE_EVERY_S)

    def slowdown(self, start: float, end: float) -> float:
        """Mean reference time within WINDOW_S of [start, end], over REFERENCE_S."""
        lo = bisect_left(self.starts, start - WINDOW_S)
        hi = bisect_right(self.starts, end + WINDOW_S)
        # never empty: every timed interval is sampled right after it ends
        near = self.took[lo:hi]
        return sum(near) / len(near) / REFERENCE_S

    def corrected(self, start: float, end: float) -> float:
        """The wall time of [start, end] at the reference speed."""
        return (end - start) / self.slowdown(start, end)
