"""Speed probe: express measured times at one fixed machine speed.

On a shared machine the same operation can take 35 ms for some seconds and
56 ms for the next, and process CPU time swings with it, so raw timings of
identical runs differ by 20 % and more. The probe times a fixed reference
computation from a SIGALRM handler every ``PERIOD_S``. A measured interval
is divided by the local speed factor: the trimmed mean of the reference
times sampled during the interval (or the six samples nearest its middle,
when it holds fewer than five), over ``REFERENCE_S``.
The result is the time the interval would have taken at the speed where
the reference takes ``REFERENCE_S``. Time spent in the handler is taken
out of every interval first.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from array import array
from dataclasses import dataclass

PERIOD_S = 0.01
REFERENCE_ITEMS = 400
REFERENCE_S = 0.0006  # nominal time of the reference computation


def reference(items: int = REFERENCE_ITEMS) -> int:
    """Fixed interpreter work of the kind cqpkit does: calls, tuples,
    strings, dict probes and frozenset unions."""
    table: dict = {}
    total = 0
    for i in range(items):
        key = (i % 17, f"q{i % 11}")
        table[key] = frozenset((i % 5, i % 3)) | table.get(key, frozenset())
        total += len(table[key])
    return total


@dataclass(frozen=True)
class Interval:
    start: float
    end: float
    raw_s: float  # end - start, less the time spent in the probe


class SpeedProbe:
    def __init__(self):
        self.times = array("d")
        self.durations = array("d")
        self.spent = 0.0

    def _sample(self, _signum, _frame):
        # With the collector off the sample never pays for collecting the
        # program's objects, so a change to the program's heap leaves the
        # reference time alone.
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference()
            t1 = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.times.append(t0)
        self.durations.append(t1 - t0)
        self.spent += t1 - t0

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        """Seconds that stand still while the probe samples."""
        return time.perf_counter() - self.spent

    def mark(self) -> tuple[float, float]:
        return time.perf_counter(), self.spent

    def interval(self, mark: tuple[float, float]) -> Interval:
        t1 = time.perf_counter()
        t0, spent0 = mark
        return Interval(t0, t1, (t1 - t0) - (self.spent - spent0))

    def factor(self, start: float, end: float) -> float:
        """Local slowdown against the reference speed. It may need samples
        taken after ``end``, so call it once the run is over."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi - lo < 5:
            mid = bisect.bisect_left(self.times, (start + end) / 2)
            lo, hi = max(0, mid - 3), mid + 3
        window = sorted(self.durations[lo:hi])
        cut = len(window) // 10
        return statistics.fmean(window[cut:len(window) - cut]) / REFERENCE_S

    def scaled(self, iv: Interval) -> float:
        """Seconds of ``iv`` at the reference speed."""
        return iv.raw_s / self.factor(iv.start, iv.end)
