"""Machine speed, measured so that benchmark times can be reported at a fixed speed.

The host this benchmark runs on is shared: the speed of interpreted code
drifts by up to 2x, within seconds and within a single check, in step for
all of it.  Every time the benchmark reports is therefore scaled to
reference speed.  A timer signal runs a fixed reference computation every
REF_INTERVAL, also in the middle of a check; a check's scaled time is its
wall time without those samples, times REF_SECONDS over the reference
duration across it (the samples inside it and the one either side).
The reference computation does the kind of work reedylab does (Fraction
arithmetic, dict stores), which tracks the drift best, and no change to
reedylab can change it.  This module imports nothing from reedylab.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import signal
import statistics
import time
from fractions import Fraction

REF_SECONDS = 0.002
REF_INTERVAL = 0.05


def reference_seconds() -> float:
    """Wall time of the reference computation: Fraction and dict work, gc off.

    Its temporaries are freed before it returns, so it leaves the garbage
    collector's counts as it found them.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(1, 300):
            x = Fraction(i % 7 + 1, i % 5 + 2) * Fraction(i % 3 + 1, 4) + Fraction(1, i % 11 + 1)
            table[i & 63] = x
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def reference_now() -> float:
    """The reference duration right now: the median of three timings."""
    return statistics.median(reference_seconds() for _ in range(3))


class SpeedMeter:
    """Reference samples over time: their start times and durations.

    ``start``/``stop`` run the sampling timer; ``sample`` takes one sample
    directly, for spans timed while the timer is off.
    """

    def __init__(self):
        self.stamps: list[float] = []
        self.refs: list[float] = []
        self._previous = None
        self._running = False
        self._sampling = False
        reference_now()  # warm the reference code before the first sample
        self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        self.refs.append(reference_seconds())
        self.stamps.append(start)

    def _on_timer(self, signum, frame) -> None:
        if not self._sampling:  # a late tick must not nest inside a sample
            self._sampling = True
            try:
                self.sample()
            finally:
                self._sampling = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL, REF_INTERVAL)
        self._running = True

    def stop(self) -> None:
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
            self._running = False
        self.sample()

    @contextlib.contextmanager
    def paused(self):
        """No samples inside: for code whose threads would contend with them."""
        if not self._running:
            yield
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.sample()
        try:
            yield
        finally:
            self.sample()
            signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL, REF_INTERVAL)

    def scaled(self, start: float, end: float) -> float:
        """The time between start and end, without samples, at reference speed."""
        first = bisect.bisect_left(self.stamps, start)
        last = bisect.bisect_left(self.stamps, end)
        lo, hi = max(first - 1, 0), min(last, len(self.stamps) - 1)
        busy = end - start - sum(self.refs[first:last])
        speed = statistics.mean(1 / r for r in self.refs[lo:hi + 1])
        return busy * REF_SECONDS * speed
