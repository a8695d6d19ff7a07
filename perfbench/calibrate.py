"""Speed calibration for a host whose speed drifts.

On a shared virtual machine the same fixed work can run 50-80% slower in
some minutes than in others, in every process alike and in CPU time as
well as wall time.  A whole run's median cannot remove a slow phase that
lasts minutes, so the benchmark measures the host's speed next to every
op and reports each op's time at a fixed reference speed.

Between ops the timing loop runs a fixed pure-Python kernel (integer
arithmetic and dict lookups, the same kind of work as the program, and
no container allocation, so garbage collection never runs in it) for
about a tenth of the time since the previous sample.  An op's slowdown
is the mean per-iteration time of the samples just before and just after
it, over `REF_ITER_S`; its reference time is its measured time over its
slowdown.  The kernel is the benchmark's own code, so a change to the
program moves the reference times and never the slowdown.
"""

from __future__ import annotations

import bisect
import gc
import time

#: kernel iteration time at the reference speed, a fixed constant: near the
#: middle of the 2.5e-4 to 5e-4 s seen from minute to minute on a shared
#: 2-vCPU virtual machine (Intel Xeon, 2.1 GHz) with Python 3.
REF_ITER_S = 4.0e-4
#: a sample runs for this share of the time since the previous one ends
DUTY = 0.1
MIN_SAMPLE_S = 0.005

_TABLE = {a: a % 4 for a in range(1, 211)}


def kernel() -> int:
    """One iteration: a fixed B1-like sum of table lookups."""
    sums = [0, 0, 0, 0]
    for a in range(1, 2000):
        k = _TABLE.get(a % 211)
        if k is not None:
            sums[k] += a * 3 // 2
    return sums[0] - sums[2]


class Calibrator:
    """Speed samples taken between ops, and the slowdown of any interval."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.iter_s: list[float] = []

    def sample(self) -> None:
        """Run the kernel for DUTY of the time since the last sample."""
        since = self.clock() - self.ends[-1] if self.ends else 0.0
        budget = max(MIN_SAMPLE_S, DUTY * since)
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = self.clock()
            n = 0
            while True:
                kernel()
                n += 1
                now = self.clock()
                if now - start >= budget:
                    break
        finally:
            if enabled:
                gc.enable()
        self.starts.append(start)
        self.ends.append(now)
        self.iter_s.append((now - start) / n)

    def slowdown(self, start: float, end: float) -> float:
        """Slowdown over [start, end]: samples ending before it and starting after it."""
        before = max(bisect.bisect_right(self.ends, start) - 1, 0)
        after = min(bisect.bisect_left(self.starts, end), len(self.starts) - 1)
        return (self.iter_s[before] + self.iter_s[after]) / 2 / REF_ITER_S
