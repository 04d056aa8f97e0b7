"""Correction for contention on a shared core.

The host this benchmark was built on shares its cores with other
machines: the same request's wall and CPU time vary by up to 2× within
seconds, and CPU time moves with wall time.  A fixed pure-Python kernel
(Fraction arithmetic and small-tuple dict updates, like the package's
own inner loops) is timed every SAMPLE_EVERY_S seconds, between in-process
requests and while a child process runs; the benchmark pins itself and
its children to one CPU, so the kernel measures the core the work runs
on.  A request's time is scaled by REFERENCE_S over the kernel's time
around it: the result is the time the request would take on a core that
runs the kernel in REFERENCE_S seconds.  Program changes do not touch
the kernel, so a faster or slower program shows in full.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter, process_time

# About the kernel's CPU time on an uncontended core of the host the
# baseline was measured on (its fastest runs there took 5.2 ms).
REFERENCE_S = 0.005
SAMPLE_EVERY_S = 0.25


def kernel() -> dict:
    acc: dict = {}
    for i in range(1000):
        f = Fraction(i % 11 + 1, i % 13 + 2) * Fraction(3, i % 7 + 1) + Fraction(1, 3)
        key = (i % 7, i % 5, i % 3)
        acc[key] = acc.get(key, 0) + f.numerator * f.denominator
    return acc


def pin_to_one_cpu() -> int:
    """Run this process, and the children it starts, on one CPU; returns
    how many CPUs it could use before."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    return len(cpus)


class Calibrator:
    """Kernel timings of one process, and the correction they imply."""

    def __init__(self):
        self.begins: list = []   # when each sample started
        self.timed: list = []    # when its timed kernel run started
        self.ends: list = []     # when it ended
        self.seconds: list = []  # CPU time of the timed kernel run
        self.spent: list = []    # CPU time of the whole sample

    def sample(self) -> None:
        # CPU time, not wall time: a child process on the same CPU takes
        # turns with the kernel, and only contention should count
        begin, c0 = perf_counter(), process_time()
        kernel()  # the first run after a child process ran can be 3x slow
        t0, c1 = perf_counter(), process_time()
        kernel()
        c2 = process_time()
        self.begins.append(begin)
        self.timed.append(t0)
        self.ends.append(perf_counter())
        self.seconds.append(c2 - c1)
        self.spent.append(c2 - c0)

    def due_in(self) -> float:
        """Seconds until the next sample is due (0 when it is due now)."""
        if not self.ends:
            return 0.0
        return max(0.0, SAMPLE_EVERY_S - (perf_counter() - self.ends[-1]))

    def maybe_sample(self) -> None:
        if self.due_in() == 0.0:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean kernel time around [start, end]: the
        last sample before it, the samples inside it, the first after it."""
        lo = max(bisect_right(self.timed, start) - 1, 0)
        hi = min(bisect_left(self.timed, end) + 1, len(self.timed))
        near = self.seconds[lo:hi]
        return REFERENCE_S * len(near) / sum(near)

    def busy(self, start: float, end: float) -> float:
        """CPU time this process spent sampling inside [start, end]."""
        lo = bisect_left(self.begins, start)
        return sum(c for c, e in zip(self.spent[lo:], self.ends[lo:])
                   if e <= end)

    def correct(self, start: float, wall: float) -> float:
        """A wall time measured from `start`, without the sampling inside
        it, corrected to the reference core."""
        end = start + wall
        return (wall - self.busy(start, end)) * self.scale(start, end)
