"""The host's CPU speed during a run, from a fixed reference computation.

On a shared host the speed of one CPU swings by up to 1.8x, from one second
to the next and in its mix from one minute to the next, so raw wall times of
the same code differ by 10-40% from one 55-second run to the next.  A bkpq
op and this reference slow down together.  The benchmark therefore times the
reference once before the first op and once after every op and every
set-up, and scales each of them by REFERENCE_S / (mean of the reference
times just before and just after it): the result is its time on a host where
the reference takes REFERENCE_S.  The speed of the two vCPUs of the host
swings independently, so the runner and every worker it starts are pinned to
one CPU, where the reference is timed too.  The reference shares no code
with bkpq, so a change to bkpq moves a scaled time exactly as much as the
raw one.  Raw times are reported next to scaled ones.
"""

import os
import statistics
import time
from fractions import Fraction

# The reference's duration at the fastest speed of the host the benchmark
# was tuned on (a 2-vCPU Xeon VM, Python 3.11).  It only fixes the unit.
REFERENCE_S = 0.030


def reference():
    """Dict-of-Fraction accumulation: the same kind of work as bkpq's series."""
    acc = {}
    for i in range(1, 160):
        for j in range(1, 60):
            k = (i * j) % 97
            acc[k] = acc.get(k, Fraction(0)) + Fraction(i, j)
    return acc


def pin_to_one_cpu():
    """Run this process, and every process it starts, on one CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class HostSpeed:
    def __init__(self):
        self.samples = []
        self.sample()

    def sample(self):
        """Time the reference once.  Returns the factor from wall time to
        time at the reference speed for what ran since the last sample."""
        start = time.perf_counter()
        reference()
        self.samples.append(time.perf_counter() - start)
        return REFERENCE_S / statistics.fmean(self.samples[-2:])
