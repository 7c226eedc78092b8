"""Pass times in reference seconds, steadied against the host's speed.

The 2-core virtual machine the benchmark was tuned on runs a fixed
pure-Python loop in about 0.2 ms in its fast phases and 0.45 ms in its slow
ones; the phases last from a fraction of a second to minutes, and CPU time
moves with wall time.  Wall times of one pass therefore spread by up to 50%
between runs of the same code, more than any bound could hold.

``HostClock`` samples the host's speed while the passes run: an interval
timer raises SIGALRM every ``PERIOD_S`` seconds, and the handler times
``ref_loop``.  ``ref_seconds(a, b)`` turns the wall interval [a, b] into
reference seconds: each stretch of program time between two samples is
scaled by ``REF_NOMINAL_S`` over the mean time of the loop in those two
samples, and the handler's own time is left out.  A reference second is
thus the time the program would take on a processor that runs
``ref_loop`` in ``REF_NOMINAL_S``; on the machine above that is about a
wall second in a fast phase.  A change to the program moves reference
seconds as it moves wall seconds, while the host's phases cancel out.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

PERIOD_S = 0.01
REF_NOMINAL_S = 250e-6


def ref_loop() -> int:
    """A fixed piece of interpreter work: dict, tuple, str and sort."""
    d = {}
    for i in range(300):
        k = ("n", i % 97, str(i))
        d[k] = d.get(k, 0) + len(k[2])
        tuple(sorted((i % 5, i % 3, i % 7)))
    return len(d)


class HostClock:
    def __init__(self):
        self.starts: list = []
        self.ends: list = []
        self._busy = False
        self._old_handler = None

    def sample(self, *_signal_args) -> None:
        """Time one ``ref_loop``.  Also called directly, so that every
        timed operation has a sample just before it."""
        if self._busy:
            return
        self._busy = True
        try:
            t0 = perf_counter()
            ref_loop()
            t1 = perf_counter()
            self.starts.append(t0)
            self.ends.append(t1)
        finally:
            self._busy = False

    def start(self) -> None:
        self._old_handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def ref_seconds(self, a: float, b: float) -> float:
        """Reference seconds of program time in the wall interval [a, b].
        There must be a sample that starts before ``a`` and one that
        starts after ``b``."""
        i = bisect.bisect_right(self.starts, a) - 1
        j = bisect.bisect_left(self.starts, b)
        if i < 0 or j >= len(self.starts):
            raise ValueError("no host-speed sample on each side of the interval")
        total = 0.0
        for k in range(i, j):
            lo, hi = max(self.ends[k], a), min(self.starts[k + 1], b)
            if hi > lo:
                cost = (self.ends[k] - self.starts[k] + self.ends[k + 1] - self.starts[k + 1]) / 2
                total += (hi - lo) * REF_NOMINAL_S / cost
        return total

    def median_loop_s(self) -> float:
        costs = sorted(e - s for s, e in zip(self.starts, self.ends))
        return costs[len(costs) // 2]
