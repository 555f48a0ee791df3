"""Reference speed: timings corrected for how fast the machine ran them.

On a small shared machine the interpreter's speed swings by more than half
within a run, in phases from under a millisecond to a few tenths of a
second.  So the run's own process times `ref_loop()` in between operations,
never while one runs: LOOPS times in a row, at most every REF_EVERY_S.  A
timing t is reported as t * REF_MS / r, where r is the mean of the loop
times sampled around it: those taken last before t started and those taken
first after it ended.
"""
from __future__ import annotations

import bisect
import statistics
from fractions import Fraction
from time import perf_counter

# typical ref_loop() time, in ms, between operations on the machine the
# README's figures come from
REF_MS = 1.2
REF_EVERY_S = 0.02
LOOPS = 3


def ref_loop() -> float:
    """A fixed pure-Python loop that does not touch landaukol: integer
    arithmetic, dict and list updates, string formatting, small Fractions, a
    sort and float powers, so that no single code path sets its speed."""
    t0 = perf_counter()
    acc, table, items = 12345, {}, []
    for i in range(400):
        acc = (acc * 1103515245 + 12345) & 0x7FFFFFFF
        key = acc % 97
        table[key] = table.get(key, 0) + 1
        items.append((acc >> 11, f"{key:02d}"))
        if i % 4 == 0:
            Fraction(acc % 997 + 1, key + 2) + Fraction(i % 13, 11)
    items.sort()
    sum((v + 1.0) ** 0.5 for v, _ in items)
    return perf_counter() - t0


class RefClock:
    """Reference-loop samples taken in this process between operations."""

    def __init__(self) -> None:
        self.at: list = []  # when each sample ended
        self.samples: list = []  # its mean loop time, in seconds

    def sample(self) -> None:
        self.samples.append(statistics.mean(ref_loop() for _ in range(LOOPS)))
        self.at.append(perf_counter())

    def between(self) -> None:
        """Call between two operations: samples if REF_EVERY_S has passed
        since the last sample."""
        if not self.at or perf_counter() - self.at[-1] >= REF_EVERY_S:
            self.sample()

    def ms(self) -> float:
        """Median raw loop time over the run's samples."""
        return statistics.median(self.samples) * 1e3

    def factor(self, t0: float, t1: float) -> float:
        """REF_MS / r for a timing that ran from t0 to t1."""
        lo = max(bisect.bisect_right(self.at, t0) - 1, 0)
        hi = bisect.bisect_right(self.at, t1) + 1
        return REF_MS / (statistics.mean(self.samples[lo:hi]) * 1e3)

    def scaled(self, t0: float, seconds: float) -> float:
        """`seconds`, measured from time t0, at reference speed."""
        return seconds * self.factor(t0, t0 + seconds)
