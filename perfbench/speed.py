"""Machine-speed sampler for the timed rounds.

The benchmark's host is shared, and the speed it gives one core moves by up
to 2x within seconds, in CPU time as much as in wall time. A fixed
pure-Python kernel (closure tests of subsets of S4, the engine's kind of
work), timed every INTERVAL_S of wall time from a SIGALRM
handler in the main thread, measures that speed while the engine runs,
including during a query that takes seconds. Each timed interval is then
reported as its busy time (the handler's own time taken out) scaled to the
speed at which one kernel sample takes REF_SAMPLE_S:

    scaled = busy * REF_SAMPLE_S / mean(sample times within PAD_S of the interval)

The kernel is the benchmark's own code and never calls the engine, so a
change to the engine moves the scaled time and leaves the scale alone.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from itertools import combinations
from time import perf_counter

import corpus

INTERVAL_S = 0.02        # one sample per 20 ms of wall time: about 2.5 % of it
PAD_S = 0.25             # samples this close to an interval set its scale
REF_SAMPLE_S = 0.0005    # reported times are at the speed where a sample takes this
KERNEL_REPS = 8          # kernel passes per sample: about 0.5 ms


class _Table:
    """Cayley table lookups through a method call, as the engine makes them."""

    def __init__(self, group):
        self.index = {e: i for i, e in enumerate(group.carrier)}
        self.table = group.table

    def mul(self, a, b):
        return self.table[self.index[a]][self.index[b]]


# a closure test of fixed subsets of S4: string sets and table lookups like the engine's
_S4 = corpus.symmetric(4)
_MUL = _Table(_S4)
_SUBSETS = [set(extra) | {_S4.identity} for extra in combinations(_S4.carrier[1:9], 3)]


def kernel() -> int:
    closed = 0
    for sub in _SUBSETS:
        closed += all(_MUL.mul(a, b) in sub for a in sub for b in sub)
    return closed


class Sampler:
    """Times the kernel every INTERVAL_S between start() and stop()."""

    def __init__(self):
        self.starts: list[float] = []
        self.took: list[float] = []

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        for _ in range(KERNEL_REPS):
            kernel()
        self.starts.append(t0)
        self.took.append(perf_counter() - t0)

    def start(self) -> None:
        for _ in range(KERNEL_REPS):     # the first passes of a fresh interpreter run slow
            kernel()
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample(None, None)

    def factor(self) -> float:
        """Reference speed over the median speed of every sample so far."""
        return REF_SAMPLE_S / statistics.median(self.took)

    def busy(self, start: float, end: float) -> float:
        """end - start without the samples taken inside it."""
        i, j = bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end)
        return end - start - sum(self.took[i:j])

    def scaled(self, start: float, end: float) -> float:
        """Busy time of [start, end] at the reference speed."""
        i = bisect.bisect_left(self.starts, start - PAD_S)
        j = bisect.bisect_right(self.starts, end + PAD_S)
        if i == j:                       # nothing near: the nearest sample
            i = min(max(i - 1, 0), len(self.starts) - 1)
            j = i + 1
        return self.busy(start, end) * REF_SAMPLE_S / statistics.fmean(self.took[i:j])
