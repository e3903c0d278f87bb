"""Base machinery shared by all sampling profilers.

Every practical profiler consumes the commit-stage trace, keeps whatever
state its hardware would keep, and takes a sample whenever its
:class:`~repro.core.sampling.SampleSchedule` fires.  Some policies cannot
attribute a sample at the sampled cycle (NCI must wait for the next
commit; TIP's drained samples wait for the next dispatch) -- those become
*pending* samples that resolve on a later cycle.  Samples that never
resolve before the run ends keep an empty attribution and count as
misattributed, which is the conservative choice.

Profilers are driven two ways.  The per-record reference replay calls
:meth:`SamplingProfiler.on_cycle` once per cycle.  Every live run and
block replay hands them batches of cycles -- the core's open block of
stepped cycles and stall runs, a memoized loop period under
``sim="fast"``, or a replayed trace chunk -- each as one columnar
:class:`~repro.fastpath.block.CycleBlock` through
:meth:`SamplingProfiler.on_block`; profilers that override the
``_block_*`` hooks then touch only the cycles that matter -- sample
points and pending-resolution events, located by bisecting the block's
sparse index lists -- instead of paying a Python call per cycle, and
all others get every record of the block through
:meth:`~SamplingProfiler.on_cycle`.  The block loop reproduces the
per-cycle semantics exactly (state update, then pending resolution,
then sampling, in cycle order), so both paths emit bit-identical
sample streams.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..cpu.trace import CycleRecord, TraceObserver
from .samples import Attribution, Category, Sample
from .sampling import SampleSchedule

#: Return value of ``_attribute``/``_resolve`` hooks.
Outcome = Tuple[Attribution, Optional[Category]]

#: The columnar hooks a block-native profiler overrides, all together.
_BLOCK_HOOKS = ("_block_attribute", "_block_scan_resolve",
                "_block_resolve_outcome")


class SamplingProfiler(TraceObserver):
    """A statistical profiler driven by a sample schedule."""

    #: Short policy name used in reports ("TIP", "NCI", ...).
    name = "base"
    #: Whether samples may carry multiple addresses (sizes the perf
    #: record, Section 3.2).
    ilp_aware = False
    #: Derived per class from the hooks it overrides: all three of
    #: ``_BLOCK_HOOKS`` select the columnar ``on_block``, none keeps
    #: the per-record fallback, and a partial set fails at definition.
    _columnar = False

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        overridden = [name for name in _BLOCK_HOOKS
                      if getattr(cls, name)
                      is not getattr(SamplingProfiler, name)]
        if overridden and len(overridden) < len(_BLOCK_HOOKS):
            missing = [name for name in _BLOCK_HOOKS
                       if name not in overridden]
            raise TypeError(
                f"{cls.__name__} overrides {', '.join(overridden)} but "
                f"not {', '.join(missing)}: the columnar block hooks "
                f"are overridden together or not at all")
        cls._columnar = bool(overridden)

    def __init__(self, schedule: SampleSchedule):
        self.schedule = schedule
        self.samples: List[Sample] = []
        self._prev_sample_cycle = -1
        self._pending: List[Sample] = []

    # -- subclass hooks -------------------------------------------------------

    def _update_state(self, record: CycleRecord) -> None:
        """Track whatever hardware state this policy needs."""

    def _attribute(self, record: CycleRecord) -> Optional[Outcome]:
        """Attribute a sample taken at *record*; ``None`` defers it."""
        raise NotImplementedError

    def _resolve(self, record: CycleRecord) -> Optional[Outcome]:
        """Try to resolve pending samples with a later *record*."""
        return None

    # -- trace consumption ----------------------------------------------------

    def on_cycle(self, record: CycleRecord) -> None:
        self._update_state(record)
        if self._pending:
            outcome = self._resolve(record)
            if outcome is not None:
                weights, category = outcome
                for sample in self._pending:
                    sample.weights = weights
                    sample.category = category
                self._pending.clear()
        if self.schedule.is_sample(record.cycle):
            self._take_sample(record)

    def on_finish(self, final_cycle: int) -> None:
        self._pending.clear()

    def _take_sample(self, record: CycleRecord) -> None:
        # Periodic sampling: the sample represents the cycles since the
        # previous sample.  Random sampling draws one sample uniformly
        # within each period-long interval, so the unbiased
        # (Horvitz-Thompson) weight is the constant period -- using the
        # realized spacing would add estimator noise.
        if self.schedule.mode == "random":
            interval = self.schedule.period
        else:
            interval = record.cycle - self._prev_sample_cycle
        self._prev_sample_cycle = record.cycle
        sample = Sample(record.cycle, interval, [], None)
        self.samples.append(sample)
        outcome = self._attribute(record)
        if outcome is None:
            self._pending.append(sample)
        else:
            sample.weights, sample.category = outcome

    # -- columnar block consumption (the fastpath engine) ---------------------
    #
    # The driver below replays the cycle engine's per-cycle semantics
    # over a CycleBlock while visiting only the cycles where something
    # can happen: the schedule's next sample point (known in advance)
    # and, while samples are pending, the first cycle whose record can
    # resolve them (found by bisecting the block's sparse index lists).
    # Every skipped cycle is one where on_cycle would have updated
    # policy state and returned; the _block_* hooks recompute that
    # state on demand from the columns, and _block_update_tail pins the
    # carried state to the block's final cycle so consecutive blocks
    # (or a switch back to the cycle engine) chain exactly.

    def on_block(self, block) -> None:
        if not self._columnar:
            TraceObserver.on_block(self, block)
            return
        n = block.n
        if not n:
            return
        start = block.start_cycle
        schedule = self.schedule
        # First index at which a pending sample may resolve.  A sample
        # deferred at index s resolves no earlier than s + 1 (on_cycle
        # tries resolution before sampling); pendings carried in from a
        # previous block may resolve at index 0.
        scan = 0
        while True:
            s = schedule.next_sample - start
            if self._pending:
                r = self._block_scan_resolve(block, scan)
                if r is not None and (s >= n or r <= s):
                    weights, category = \
                        self._block_resolve_outcome(block, r)
                    for sample in self._pending:
                        sample.weights = weights
                        sample.category = category
                    self._pending.clear()
            if s >= n:
                break
            cycle = start + s
            schedule.is_sample(cycle)  # advance past the sample point
            if schedule.mode == "random":
                interval = schedule.period
            else:
                interval = cycle - self._prev_sample_cycle
            self._prev_sample_cycle = cycle
            sample = Sample(cycle, interval, [], None)
            self.samples.append(sample)
            outcome = self._block_attribute(block, s)
            if outcome is None:
                if not self._pending:
                    scan = s + 1
                self._pending.append(sample)
            else:
                sample.weights, sample.category = outcome
        self._block_update_tail(block)

    # -- block hooks (override all three or none) -----------------------------

    def _block_attribute(self, block, i: int) -> Optional[Outcome]:
        """Columnar twin of ``_attribute`` for the record at index *i*.

        Must account for any state update the record itself would have
        applied (``on_cycle`` updates state before attributing).
        """
        raise NotImplementedError

    def _block_scan_resolve(self, block, i: int) -> Optional[int]:
        """First index ``>= i`` whose record resolves pending samples.

        ``None`` when nothing in the rest of the block resolves them.
        """
        raise NotImplementedError

    def _block_resolve_outcome(self, block, i: int) -> Outcome:
        """The resolution outcome at index *i* (mirrors ``_resolve``,
        including any side effects on policy state)."""
        raise NotImplementedError

    def _block_update_tail(self, block) -> None:
        """Advance carried policy state past the whole block (hook)."""

    # -- pooled runs: samples cross processes as snapshots --------------------

    def snapshot(self) -> dict:
        """Picklable capture of this profiler's collected samples."""
        return {
            "policy": self.name,
            "samples": [(s.cycle, s.interval, list(s.weights), s.category)
                        for s in self.samples],
        }

    def restore(self, snapshot: dict) -> None:
        """Fill this (fresh) profiler from a snapshot (a pool worker's
        payload)."""
        for cycle, interval, weights, category in snapshot["samples"]:
            self.samples.append(Sample(cycle, interval, weights, category))

    # -- results --------------------------------------------------------------

    @property
    def sampled_cycles(self) -> int:
        return sum(s.interval for s in self.samples)

    def profile(self) -> dict:
        """Aggregate samples into an addr -> time profile."""
        profile: dict = {}
        for sample in self.samples:
            for addr, fraction in sample.weights:
                profile[addr] = profile.get(addr, 0.0) + \
                    sample.interval * fraction
        return profile

    def __repr__(self) -> str:
        return f"<{self.name} profiler: {len(self.samples)} samples>"
