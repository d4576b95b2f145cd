"""A clock that runs at the host's speed, for a host whose CPU speed changes.

On a shared host the CPU speed a process gets changes by up to ~1.8x, in
spells from milliseconds to minutes, so the same code takes very different
times from one run to the next.  `SpeedProbe` samples the speed while the
benchmark runs: every INTERVAL_S of wall time a timer signal runs a fixed
piece of pure-Python Fraction arithmetic (the unit) and records how long it
took.  Over five minutes of changing host speed, the coefficient of
variation of (dgtrace op time / unit time) was 0.057 for main_theorem ops
and 0.034 for dual-Hom ops with this unit, against 0.081/0.044 for the
Fraction sum alone, 0.056/0.038 for the row reduction alone, 0.2/0.28 for a
walk over a large list, and 0.077/0.084 for op time unscaled.  A time span divided by the mean unit time of the samples inside it
(or the nearest ones) and multiplied by UNIT_REF_S is the span's length at
the reference speed: the speed at which the unit takes UNIT_REF_S.  The
time the probe itself takes is subtracted from every span.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.02
# a span is scaled by the mean of at least this many samples: those inside
# it, widened to the nearest ones around it.  One sample is too noisy, and
# 1/mean over few noisy samples is biased high by their variance.
MIN_SAMPLES = 20
# the unit's time at the reference speed.  On a 2-vCPU 2.1 GHz x86-64 VM
# under CPython 3.11 it takes 290 us in fast spells and 530 us in slow ones.
UNIT_REF_S = 3.5e-4


def _harmonic():
    s = Fraction(0)
    for i in range(1, 40):
        s += Fraction(1, i)
    return s


def _row_reduce():
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 3)
          for j in range(5)] for i in range(5)]
    for c in range(5):
        p = next((r for r in range(c, 5) if m[r][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        for r in range(c + 1, 5):
            f = m[r][c] * inv
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return m


def unit():
    """A Fraction sum with growing denominators, then a row reduction of a
    small matrix over Q: the kinds of work dgtrace does."""
    return _harmonic(), _row_reduce()


class SpeedProbe:
    """Samples the unit's time every INTERVAL_S, from start() to stop()."""

    def __init__(self):
        self.at = []        # perf_counter at each sample's end
        self.unit_s = []    # the unit's time in each sample
        self.spent = [0.0]  # the probe's own time up to each sample's end
        self._old = None

    def sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()  # a collection is the program's time, not the unit's
        t1 = time.perf_counter()
        unit()
        t2 = time.perf_counter()
        if collecting:
            gc.enable()
        self.at.append(t2)
        self.unit_s.append(t2 - t1)
        self.spent.append(self.spent[-1] + (time.perf_counter() - t0))

    def start(self):
        self.sample()
        self._old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old or signal.SIG_DFL)
        self.sample()

    def scale(self, t0: float, t1: float):
        """(the probe's own time in [t0, t1], the factor that takes the
        rest of the span to the reference speed)."""
        lo = bisect.bisect_left(self.at, t0)
        hi = bisect.bisect_right(self.at, t1)
        own = self.spent[hi] - self.spent[lo]
        pad = max(0, MIN_SAMPLES - (hi - lo) + 1) // 2
        near = self.unit_s[max(0, lo - pad):hi + pad]
        # their mean, less samples that were interrupted
        cap = 3 * sorted(near)[len(near) // 2]
        kept = [u for u in near if u <= cap]
        return own, UNIT_REF_S * len(kept) / sum(kept)

    def span(self, t0: float, t1: float) -> float:
        """The perf_counter span [t0, t1], less the probe's own time in it,
        at the reference speed."""
        own, factor = self.scale(t0, t1)
        return (t1 - t0 - own) * factor
