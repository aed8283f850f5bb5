"""Speed-calibrated timing.

The machines this benchmark runs on change speed in phases lasting
seconds: the same pass of light-cli takes 0.27 s or 0.45 s depending on
when it runs, and the same 25 s verify-cli pass varies by more than 10%
between runs.  To measure coxlow rather than the machine, a SIGALRM timer
interrupts the run every INTERVAL_S seconds and times a fixed piece of
pure-Python work (``reference``, which does not touch coxlow).  A timed
interval is then reported at the machine's nominal speed:

    calibrated = (wall - time spent in the samples) * REFERENCE_S / mean(sample)

where the samples are those taken during the interval and within
WINDOW_S of either end.  REFERENCE_S is about the reference's typical
time on the 2-vCPU x86-64 machine the benchmark was defined on, so there
calibrated seconds read close to wall seconds.
"""

import bisect
import json
import math
import signal
from array import array
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.15
WINDOW_S = 1.0
REFERENCE_S = 0.004

_C, _S = math.cos(0.3), math.sin(0.3)
_ROTATION = ((_C, -_S, 0.0), (_S, _C, 0.0), (0.0, 0.0, 1.0))
# 65,536 entries (a few MB) read in a scattered order, so that the
# reference slows down with the memory system as well as the core
_TABLE = {i * 2654435761 % (1 << 24): i for i in range(1 << 16)}
_KEYS = list(_TABLE)[::9]
_THIRD = Fraction(1, 3)


def reference():
    """Fixed work of the kinds coxlow does, in five parts of similar
    length: 3x3 float matrix products on tuples with rounded keys; building
    and sorting tuples; scattered dict reads; JSON formatting; Fraction
    arithmetic.  No one kind tracks the machine's slow phases as closely
    as the mix does."""
    v = _ROTATION
    seen = {}
    for i in range(36):
        v = tuple(tuple(sum(v[r][k] * _ROTATION[k][c] for k in range(3))
                        for c in range(3)) for r in range(3))
        seen[tuple(round(x * 1e6) for row in v for x in row)] = i
    rows = sorted((i * 0.37 % 1.0, i * 0.11 % 1.0, i) for i in range(600))
    seen.update((row[:2], row) for row in rows)
    total = sum(_TABLE[k] for k in _KEYS)
    text = json.dumps([[i, i * 0.5, str(i)] for i in range(150)], indent=2)
    q = Fraction(0)
    for i in range(120):
        q += _THIRD * Fraction(i, 7)
    return len(seen) + total + len(text) + q.denominator


class SpeedClock:
    """Samples the machine's speed while running; converts wall-clock
    intervals to seconds at nominal speed."""

    def __init__(self):
        self.starts = array("d")     # start of each sample
        self.ends = array("d")       # end of each sample
        self.on_sample = None        # called with (start, end) of a sample
        self._sampling = False

    def _sample(self, signum, frame):
        if self._sampling:           # a signal that arrived during a sample
            return
        self._sampling = True
        start = perf_counter()
        reference()
        end = perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        if self.on_sample is not None:
            self.on_sample(start, end)
        self._sampling = False

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._sample(None, None)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample(None, None)

    def speed(self, a, b):
        """Mean sample time near [a, b] over REFERENCE_S (> 1 when slow)."""
        lo = bisect.bisect_left(self.starts, a - WINDOW_S)
        hi = bisect.bisect_right(self.starts, b + WINDOW_S)
        if lo == hi:
            raise ValueError("no speed sample near [%g, %g]" % (a, b))
        total = sum(self.ends[i] - self.starts[i] for i in range(lo, hi))
        return total / (hi - lo) / REFERENCE_S

    def calibrated(self, a, b):
        """Seconds [a, b] takes at nominal speed, samples excluded."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_left(self.starts, b)
        paused = sum(min(self.ends[i], b) - self.starts[i]
                     for i in range(lo, hi))
        return (b - a - paused) / self.speed(a, b)
