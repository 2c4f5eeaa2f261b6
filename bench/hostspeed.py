"""Host seconds at a reference host speed.

The hosts this benchmark runs on are shared: the same pure-Python work
measured here in 10 s windows took between 1.25x and 2.1x its best time
within five minutes, drifting for minutes at a stretch and jittering from
one 50 ms slice to the next (``bench/README.md``, *Host noise*).  No
statistic over wall-clock samples of one run removes that, because a whole
run can fall into a slow stretch.

So every timed stretch samples the host's speed around and during itself
with a fixed probe — a pure-Python kernel that calls nothing of the program,
run from an interval-timer signal in the one thread there is — and reports
*reference seconds*: the host seconds spent in the program, scaled by how
fast the host ran the probe at the time.  ``1.0`` is a host
that runs the probe in :data:`REFERENCE_S`.  A slower program takes more
reference seconds; a slower host does not.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Any, Callable

__all__ = ["REFERENCE_S", "BURST", "PERIOD_S", "Stretch"]

# What one probe takes on a host of speed 1.0 (this box at its best).
REFERENCE_S = 0.005
_ITERATIONS = 100_000
# One probe reads the speed of a 5-10 ms slice, which jitters by about 16 %
# (standard deviation over mean) around the speed of the surrounding
# second, so a timed call is bracketed by bursts ...
BURST = 6
# ... and probed this often, in host seconds, while it runs.
PERIOD_S = 0.2


def _kernel() -> int:
    value = 0
    for index in range(_ITERATIONS):
        value = (value * 31 + index) % 1_000_003
    return value


class Stretch:
    """Host time spent in calls into the program, with the host's speed
    sampled around and during them."""

    def __init__(self) -> None:
        # host seconds inside call(), the probes' own time excluded
        self.raw_s = 0.0
        self.speeds: list[float] = []
        self._probing_s = 0.0

    def _sample(self) -> None:
        start = time.perf_counter()
        _kernel()
        spent = time.perf_counter() - start
        self._probing_s += spent
        self.speeds.append(REFERENCE_S / spent)

    def probe(self, count: int = 1) -> None:
        for _ in range(count):
            self._sample()

    def _on_alarm(self, signum, frame) -> None:
        # Not probe(): a traced run rebinds that to record a span, and the
        # signal may arrive while the recorder is half-way through
        # recording another.
        self._sample()

    def call(self, fn: Callable, *args, **kwargs) -> Any:
        """Time ``fn(*args, **kwargs)``, probing every :data:`PERIOD_S`
        while it runs; the caller probes around it.  Main thread only."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        probing = self._probing_s
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.raw_s += (time.perf_counter() - start
                           - (self._probing_s - probing))
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    @property
    def speed(self) -> float:
        """Mean host speed over the stretch.  The mean of speeds, not of
        probe times: the work done in a host second is proportional to
        the speed during it."""
        return statistics.fmean(self.speeds)

    @property
    def reference_s(self) -> float:
        return self.raw_s * self.speed
