"""Sampling schedules.

The PMU triggers a sample every *period* cycles (periodic sampling) or at
a uniformly random cycle within each period (random sampling, Section
5.2).  Schedules are deterministic given their parameters, so several
profilers constructed with equal schedules sample the *exact same
cycles* -- the property the paper exploits to isolate systematic error.

The paper samples at 4 kHz on a 3.2 GHz core, i.e. one sample per 800 000
cycles of a full SPEC run.  Our synthetic workloads are orders of
magnitude shorter, so the harness picks periods that yield a comparable
*number of samples per run*; the frequency labels map through
:func:`period_for_frequency`.
"""

from __future__ import annotations

import random
from typing import Optional

#: The paper's simulated clock (Table 1), used to express sampling
#: frequencies as periods.
CORE_CLOCK_HZ = 3_200_000_000
#: perf's default sampling frequency.
DEFAULT_FREQUENCY_HZ = 4000


def period_for_frequency(frequency_hz: float,
                         clock_hz: float = CORE_CLOCK_HZ) -> int:
    """Cycles between samples for a sampling frequency on a real core."""
    return max(1, int(round(clock_hz / frequency_hz)))


class SampleSchedule:
    """Deterministic stream of sample cycles."""

    def __init__(self, period: int, mode: str = "periodic",
                 seed: int = 0, offset: Optional[int] = None):
        if period < 1:
            raise ValueError("sampling period must be >= 1 cycle")
        if mode not in ("periodic", "random"):
            raise ValueError(f"unknown sampling mode {mode!r}")
        self.period = period
        self.mode = mode
        self.seed = seed
        self.offset = period - 1 if offset is None else offset
        self._rng = random.Random(seed)
        self._interval_start = 0
        self._next = self._draw_first()

    def _draw_first(self) -> int:
        if self.mode == "periodic":
            return self._interval_start + self.offset
        return self._interval_start + self._rng.randrange(self.period)

    @property
    def next_sample(self) -> int:
        return self._next

    def is_sample(self, cycle: int) -> bool:
        """True iff *cycle* is a sample point; advances past it if so."""
        if cycle < self._next:
            return False
        hit = cycle == self._next
        while self._next <= cycle:
            self._interval_start += self.period
            if self.mode == "periodic":
                self._next = self._interval_start + self.offset
            else:
                self._next = (self._interval_start
                              + self._rng.randrange(self.period))
        return hit

    def fast_forward(self, start_cycle: int) -> int:
        """Advance past every sample point before *start_cycle*.

        Leaves the schedule in exactly the state it would have after
        ``is_sample`` was called for every cycle in ``[0, start_cycle)``
        -- including the RNG draw sequence in random mode, which draws
        once per period interval.  Returns the last sample cycle that
        was skipped (``-1`` if none).
        """
        prev = -1
        while self._next < start_cycle:
            prev = self._next
            self._interval_start += self.period
            if self.mode == "periodic":
                self._next = self._interval_start + self.offset
            else:
                self._next = (self._interval_start
                              + self._rng.randrange(self.period))
        return prev

    def clone(self) -> "SampleSchedule":
        """A fresh schedule with identical parameters (same cycles)."""
        return SampleSchedule(self.period, self.mode, self.seed, self.offset)

    def __repr__(self) -> str:
        return f"<schedule {self.mode} period={self.period}>"
