"""Host time corrected for the speed the machine has at the moment.

The host is shared: the same pure-Python loop can take 60 % longer from
one second to the next, and a neighbour's memory traffic can halve the
simulator's speed for a while.  :class:`HostClock` therefore runs a fixed
calibration loop every 10 ms of the measured work and converts each
stretch of host time into *reference seconds*: raw seconds divided by the
host's slow-down over that stretch, as the loops around it show it.
Raw seconds are kept alongside, for information.

The loop does the two kinds of work the simulator spends its time on:
interpreter dispatch (generator resumes, dict stores, small-int
arithmetic) and copies of 4 KiB pages drawn from a pool larger than the
CPU caches.  A loop with only the first kind under-reports memory
contention and over-reports the rest: on a shared 2-vCPU host the
simulator's time grew as its time to the power 0.53-0.77.  With both
kinds, the power measured 1.00 (correlation 0.93), so a plain ratio
corrects.
"""

from __future__ import annotations

import statistics
import time
from typing import List

__all__ = ["CAL_REF_S", "HostClock", "calibrate", "speed_of"]

#: Reference duration of one :func:`calibrate` loop, in seconds.  It only
#: fixes the unit: reference seconds equal raw seconds on a host that runs
#: the loop in exactly this long.
CAL_REF_S = 0.0015

_DISPATCH_ITERS = 4000
_PAGE_COPIES = 800
_PAGE = 4096
#: 4 MiB of distinct pages, so the copies miss the CPU caches.
_POOL = [bytes([i & 0xFF]) * _PAGE for i in range(1024)]


def _calibration_loop() -> int:
    """Interpreter dispatch, then page copies (see the module docstring)."""

    def echo():
        value = 0
        while True:
            value = (yield value + 1) or 0

    gen = echo()
    next(gen)
    table = {}
    total = 0
    for index in range(_DISPATCH_ITERS):
        total += gen.send(index) & 0xFF
        table[index & 63] = total
    for index in range(_PAGE_COPIES):
        page = bytearray(_POOL[(index * 997) % len(_POOL)])
        total += page[index % _PAGE]
    return total + len(table)


def calibrate() -> float:
    """Seconds one calibration loop takes right now."""
    start = time.perf_counter()
    _calibration_loop()
    return time.perf_counter() - start


class HostClock:
    """Times one measured phase in raw and in reference seconds.

    Call :meth:`start`, then :meth:`tick` often (between simulation
    slices), then :meth:`stop`.  A calibration loop runs whenever
    ``INTERVAL_S`` of raw time has passed since the last one; each stretch
    between two loops is scaled by the speed they show.  Calibration time is
    excluded from both totals.
    """

    INTERVAL_S = 0.01

    def __init__(self):
        self.samples: List[float] = []
        self.raw_s = 0.0
        self.ref_s = 0.0
        self._segment_start = 0.0
        #: ``time.monotonic()`` when the phase began (the end of set-up).
        self.started_at = 0.0

    def _calibrate(self) -> float:
        sample = calibrate()
        self.samples.append(sample)
        return sample

    def start(self) -> None:
        self.started_at = time.monotonic()
        self._calibrate()
        self._segment_start = time.perf_counter()

    def tick(self, force: bool = False) -> None:
        now = time.perf_counter()
        elapsed = now - self._segment_start
        if elapsed < self.INTERVAL_S and not force:
            return
        before = self.samples[-1]
        after = self._calibrate()
        self.raw_s += elapsed
        self.ref_s += elapsed / speed_of([before, after])
        self._segment_start = time.perf_counter()

    def stop(self) -> None:
        self.tick(force=True)

    def speed(self) -> float:
        """Host speed over the phase (see :func:`speed_of`)."""
        return speed_of(self.samples)


def speed_of(samples: List[float]) -> float:
    """Median calibration time over the reference: > 1 is slower."""
    return statistics.median(samples) / CAL_REF_S
