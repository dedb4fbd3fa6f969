"""A gauge of how fast the host runs, sampled all through a timed loop.

The benchmark shares a few cores with other tenants. Their load slows
interpreter-bound code by up to a half, in stretches that last from a
fraction of a second to minutes, and the same op on the same input then
takes that much longer. While a ``Gauge`` is active, a timer signal every
``every_s`` runs a short reference loop twice, in the benchmark's own
thread, both during ops and between them, and times the second run. The
first run brings the loop back into the caches the op has used, so that the
sample follows the host and not the op; the garbage collector is off
meanwhile, so that a collection the op has earned does not land on it.
``Gauge.scale`` divides an op's time by the median reference time over the
op (with the nearest sample on either side; the median, because a sample
now and then takes ten times as long), which gives the op's time on a host
that runs the loop in ``NOMINAL_S``. The loop does the kinds of work the
usigns ops do (big integer products and gcds, tuples, dicts) and imports
nothing from usigns, so no change to the package can move it.
"""
from __future__ import annotations

import gc
import math
import signal
from bisect import bisect_left, bisect_right
from time import perf_counter

# Seconds one reference loop takes on a quiet host (an Intel Xeon at 2.1 GHz,
# Python 3.11). It only sets the scale of the reported times.
NOMINAL_S = 0.0003


def reference() -> int:
    num, den = 1, 3
    kept = []
    for i in range(1, 60):
        num, den = num * (i + 1) * (i + 7) - den * i, den * i * (i + 7)
        g = math.gcd(num, den)
        num, den = num // g, den // g
        kept.append((num, i))
    seen = {}
    s = 0
    for i in range(3000):
        s += i * i
        seen[i & 255] = s
    return num + len(kept) + len(seen)


class Gauge:
    """Reference-loop samples (start time, seconds) taken on a timer signal
    while the gauge is entered."""

    def __init__(self, every_s: float = 0.025):
        self.every_s = every_s
        self.at: list[float] = []
        self.took: list[float] = []
        self._busy = False
        self._previous = None

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        reference()
        t0 = perf_counter()
        reference()
        self.took.append(perf_counter() - t0)
        self.at.append(t0)
        if collecting:
            gc.enable()
        self._busy = False

    def __enter__(self) -> Gauge:
        reference()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, seconds: float, start: float) -> float:
        """``seconds`` measured from ``start``, at reference speed."""
        lo = max(bisect_left(self.at, start) - 1, 0)
        hi = min(bisect_right(self.at, start + seconds) + 1, len(self.at))
        window = self.took[lo:hi]
        if not window:
            return seconds
        window.sort()
        mid = len(window) // 2
        median = window[mid] if len(window) % 2 else (window[mid - 1] + window[mid]) / 2
        return seconds * NOMINAL_S / median
