"""Effective CPU speed, sampled while the program runs.

The benchmark shares a machine whose effective speed swings by up to 2x
within seconds, so raw seconds spread too widely between runs to compare
commits.  While installed, the meter runs a fixed reference computation every
PERIOD seconds from a SIGALRM handler.  The computation shares no code with
dsheffer and does the same kind of ``Fraction`` arithmetic, so the time it
takes tracks the speed the program gets at that moment.  Times are then
reported in nominal seconds: measured seconds scaled to the speed at which
the reference computation takes NOMINAL_REFERENCE_S, which cancels the swings.

``clock()`` excludes the time spent in the handler, so timing with it sees
only the program.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

PERIOD = 0.05

# Seconds reference_work() takes on the machine described in README.md when
# no other tenant loads it; on that machine nominal and measured seconds agree.
NOMINAL_REFERENCE_S = 0.0025


_LEFT = tuple(Fraction(i + 1, 2 * i + 3) for i in range(28))
_RIGHT = tuple(Fraction(3 * i - 7, i + 5) for i in range(28))


def reference_work() -> list[Fraction]:
    """The product of two fixed 28-term rational polynomials.

    About 3 ms on a 2 GHz Xeon: dense ``Fraction`` products and sums with
    60-80 bit heights, the same kind of work as a truncated series product.
    """
    out = [Fraction(0)] * (len(_LEFT) + len(_RIGHT) - 1)
    for i, a in enumerate(_LEFT):
        for j, b in enumerate(_RIGHT):
            out[i + j] += a * b
    return out


def reference_times(count: int) -> list[float]:
    """Times of ``count`` back-to-back runs of the reference computation."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return times


def to_nominal(seconds: float, reference: list[float]) -> float:
    """Measured seconds scaled by NOMINAL_REFERENCE_S over the mean reference time."""
    return seconds * NOMINAL_REFERENCE_S / statistics.fmean(reference)


class SpeedMeter:
    """Samples the reference time from SIGALRM while ``running()`` is entered."""

    def __init__(self):
        self.samples: list[float] = []
        self.paused = 0.0

    def clock(self) -> float:
        """Seconds, not counting the time spent sampling."""
        return time.perf_counter() - self.paused

    def sample(self, *_signal_args):
        spent = reference_times(1)[0]
        self.samples.append(spent)
        self.paused += spent

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
