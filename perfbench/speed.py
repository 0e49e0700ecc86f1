"""Machine-speed reference for the timed figures.

The shared virtual machines this benchmark was built on change speed by up
to a factor of two over seconds to minutes, and process CPU time slows down
with wall time, so two runs of the same code differed by more than the
bounds in BENCHMARK.json.  A run therefore times a fixed pure-Python
workload, which uses no qec code, every half second between requests (and
between the set-up processes), and reports its times rescaled by

    REFERENCE_NOMINAL_S / (mean reference time over the run).

A rescaled second is a wall second on a machine that runs the reference in
REFERENCE_NOMINAL_S.  A change to qec moves the rescaled figures as it moves
wall time; a change of machine speed moves both the requests and the
reference, and cancels.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# about the reference time on a 2-vCPU cloud VM in its faster phases
REFERENCE_NOMINAL_S = 0.010
SAMPLE_EVERY_S = 0.5

_TERMS = [Fraction(3 * i + 1, 2 * i + 5) for i in range(24)]


def reference_s():
    """Wall time of one pass of the reference: Laurent-style products of
    dicts of Fractions, the library's hot loop, done by hand."""
    start = perf_counter()
    for _ in range(5):
        out = {}
        for a, x in enumerate(_TERMS):
            for b, y in enumerate(_TERMS):
                out[a + b] = out.get(a + b, 0) + x * y
    return perf_counter() - start


class Meter:
    """Reference samples taken through a run, at most every SAMPLE_EVERY_S."""

    def __init__(self):
        self.samples = [reference_s()]
        self.last = perf_counter()

    def tick(self):
        if perf_counter() - self.last >= SAMPLE_EVERY_S:
            self.sample()

    def sample(self, count=1):
        self.samples += [reference_s() for _ in range(count)]
        self.last = perf_counter()

    def scale(self):
        """Factor from wall seconds of this run to rescaled seconds."""
        return REFERENCE_NOMINAL_S / statistics.fmean(self.samples)
