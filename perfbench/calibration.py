"""A fixed reference computation that measures the host's current speed.

On a shared host the CPU's speed drifts, by up to 2x, for seconds to
minutes at a time, and a run cannot outlast a slow minute.  So `Clock`
times this loop just before and just after a piece of work and, for long
work, every `PERIOD_S` while it runs (from a SIGALRM handler, whose time
is not counted as the work's).  Each stretch of work between two samples
is scaled by `REFERENCE_S` over the mean of those two loop times.  The
sum is the time the work would take on a host where the loop takes
`REFERENCE_S`: a drift in host speed moves the loop and the work alike
and cancels, while a change to the program moves only the work.

The loop does what franel does most: exact `Fraction` sums of binomial
products and big-integer multiply-and-reduce steps, in pure Python.  It
takes 2.2 to 3.4 ms on the reference host (a 2-vCPU VM, Python 3.11).
"""

from __future__ import annotations

import signal
from fractions import Fraction
from math import comb
from time import perf_counter

REFERENCE_S = 0.0025
PERIOD_S = 0.2


def loop_s() -> float:
    """Seconds the reference loop takes now."""
    t0 = perf_counter()
    acc = Fraction(0)
    for k in range(60):
        acc += Fraction(comb(120, k) ** 3, k + 1)
    x = 1
    for i in range(3000):
        x = (x * 6364136223846793005 + i) % (1 << 1021)
    return perf_counter() - t0


_active = None  # the Clock that SIGALRM samples for, if any


def _on_alarm(signum, frame):
    clock = _active
    if clock is not None:
        clock._tick()


class Clock:
    """Context manager timing its body in raw and in reference seconds.

    With `period_s=None` it samples the loop only at entry and exit.
    """

    def __init__(self, period_s=PERIOD_S):
        self.period_s = period_s
        self.loops = []  # loop seconds; work[i] ran between loops[i], [i+1]
        self.work = []
        self._resumed = None

    def __enter__(self):
        global _active
        self.loops.append(loop_s())
        self._resumed = perf_counter()
        if self.period_s:
            _active = self
            signal.signal(signal.SIGALRM, _on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.period_s,
                             self.period_s)
        return self

    def _tick(self):
        global _active
        _active = None  # no nested tick while the loop runs
        self.work.append(perf_counter() - self._resumed)
        self.loops.append(loop_s())
        self._resumed = perf_counter()
        _active = self

    def __exit__(self, *exc):
        global _active
        _active = None  # from here on a due tick does nothing
        self.work.append(perf_counter() - self._resumed)
        if self.period_s:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.loops.append(loop_s())
        return False

    @property
    def seconds(self) -> float:
        """Raw seconds of work."""
        return sum(self.work)

    @property
    def scaled(self) -> float:
        """Seconds of work at the reference speed."""
        return sum(scaled(w, a, b) for w, a, b in
                   zip(self.work, self.loops, self.loops[1:]))


def scaled(seconds: float, before: float, after: float) -> float:
    """`seconds` at the reference speed, given the loop times around it."""
    return seconds * REFERENCE_S * 2 / (before + after)
