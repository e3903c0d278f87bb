"""Baseline profilers: Software, Dispatch, LCI, NCI, and NCI+ILP.

Each models the instruction-selection policy of a deployed profiler
family (Section 5):

* :class:`SoftwareProfiler` -- interrupt-based sampling (Linux perf
  without hardware assist).  The sample lands on the address execution
  will resume from after the in-flight instructions drain, i.e. the
  front-end's fetch PC: *skid*.
* :class:`DispatchProfiler` -- AMD IBS / Arm SPE: tag the instruction at
  the dispatch stage and report it.  Biased towards instructions stuck at
  dispatch behind back-pressure from a stalled ROB head (Figure 2b).
* :class:`LciProfiler` -- external monitors (Arm CoreSight): report the
  last-committed instruction.
* :class:`NciProfiler` -- Intel PEBS: report the next-committing
  instruction.
* :class:`NciIlpProfiler` -- the Section 5.2 sensitivity variant: spread
  the sample over all instructions in the next committing group.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Optional

from ..cpu.trace import CycleRecord
from .profiler import Outcome, SamplingProfiler
from .sampling import SampleSchedule


class SoftwareProfiler(SamplingProfiler):
    """Interrupt-based sampling with skid.

    On an interrupt the in-flight instructions drain and the handler
    reads the PC execution will resume from -- the front-end's fetch PC,
    tens to hundreds of instructions past the commit point.  The
    optional *skid_cycles* adds interrupt-delivery latency on top: the
    PC is captured that many cycles after the sampling decision, which
    is how software-timer sampling behaves on real systems.
    """

    name = "Software"

    def __init__(self, schedule: SampleSchedule, skid_cycles: int = 0):
        super().__init__(schedule)
        if skid_cycles < 0:
            raise ValueError("skid_cycles must be >= 0")
        self.skid_cycles = skid_cycles
        self._deliver_at: Optional[int] = None

    def _attribute(self, record: CycleRecord) -> Optional[Outcome]:
        if self.skid_cycles == 0:
            return [(record.fetch_pc, 1.0)], None
        self._deliver_at = record.cycle + self.skid_cycles
        return None

    def _resolve(self, record: CycleRecord) -> Optional[Outcome]:
        if self._deliver_at is not None and \
                record.cycle >= self._deliver_at:
            self._deliver_at = None
            return [(record.fetch_pc, 1.0)], None
        return None

    def _block_attribute(self, block, i: int) -> Optional[Outcome]:
        if self.skid_cycles == 0:
            return [(block.fetch_pc[i], 1.0)], None
        self._deliver_at = block.start_cycle + i + self.skid_cycles
        return None

    def _block_scan_resolve(self, block, i: int) -> Optional[int]:
        # The interrupt delivers at the first cycle >= _deliver_at;
        # pendings carried across a block boundary may deliver at 0.
        r = max(i, self._deliver_at - block.start_cycle)
        return r if r < block.n else None

    def _block_resolve_outcome(self, block, i: int) -> Outcome:
        self._deliver_at = None
        return [(block.fetch_pc[i], 1.0)], None


class DispatchProfiler(SamplingProfiler):
    """Tag at dispatch, as AMD IBS and Arm SPE do."""

    name = "Dispatch"

    def _attribute(self, record: CycleRecord) -> Optional[Outcome]:
        if record.dispatch_pc is not None:
            return [(record.dispatch_pc, 1.0)], None
        return None  # nothing at dispatch: tag the next arrival

    def _resolve(self, record: CycleRecord) -> Optional[Outcome]:
        if record.dispatch_pc is not None:
            return [(record.dispatch_pc, 1.0)], None
        return None

    def _block_attribute(self, block, i: int) -> Optional[Outcome]:
        pc = block.dispatch_pc_at(i)
        if pc is not None:
            return [(pc, 1.0)], None
        return None

    def _block_scan_resolve(self, block, i: int) -> Optional[int]:
        r = block.disp_pc_mask.find(1, i)
        return r if r >= 0 else None

    def _block_resolve_outcome(self, block, i: int) -> Outcome:
        return [(block.dispatch_pc_at(i), 1.0)], None


class LciProfiler(SamplingProfiler):
    """Report the last-committed instruction."""

    name = "LCI"

    def __init__(self, schedule: SampleSchedule):
        super().__init__(schedule)
        self._last_committed: Optional[int] = None

    def _update_state(self, record: CycleRecord) -> None:
        if record.committed:
            self._last_committed = record.committed[-1].addr

    def _attribute(self, record: CycleRecord) -> Optional[Outcome]:
        if self._last_committed is not None:
            return [(self._last_committed, 1.0)], None
        return None  # before the first commit: wait for it

    def _resolve(self, record: CycleRecord) -> Optional[Outcome]:
        if record.committed:
            return [(record.committed[-1].addr, 1.0)], None
        return None

    def _block_attribute(self, block, i: int) -> Optional[Outcome]:
        # _update_state runs before _attribute, so a commit group at the
        # sampled cycle itself already counts: commit_base[i + 1] is the
        # number of commits at or before index i, and the youngest of
        # them sits just below it in the packed commit_addr column.
        v = block.commit_base[i + 1]
        if v:
            return [(block.commit_addr[v - 1], 1.0)], None
        if self._last_committed is not None:
            return [(self._last_committed, 1.0)], None
        return None

    def _block_scan_resolve(self, block, i: int) -> Optional[int]:
        # First committing record >= i: the first index where the
        # commit prefix sum rises above its value at i.
        cb = block.commit_base
        q = bisect_right(cb, cb[i], i + 1)
        return q - 1 if q <= block.n else None

    def _block_resolve_outcome(self, block, i: int) -> Outcome:
        youngest = block.commit_addr[block.commit_base[i + 1] - 1]
        return [(youngest, 1.0)], None

    def _block_update_tail(self, block) -> None:
        v = block.commit_base[block.n]
        if v:
            self._last_committed = block.commit_addr[v - 1]


class NciProfiler(SamplingProfiler):
    """Report the next-committing instruction (Intel PEBS)."""

    name = "NCI"

    def _attribute(self, record: CycleRecord) -> Optional[Outcome]:
        if record.committed:
            return self._commit_group(record)
        return None

    def _resolve(self, record: CycleRecord) -> Optional[Outcome]:
        if record.committed:
            return self._commit_group(record)
        return None

    def _commit_group(self, record: CycleRecord) -> Outcome:
        return [(record.committed[0].addr, 1.0)], None

    def _block_attribute(self, block, i: int) -> Optional[Outcome]:
        if block.commit_base[i + 1] > block.commit_base[i]:
            return self._block_commit_group(block, i)
        return None

    def _block_scan_resolve(self, block, i: int) -> Optional[int]:
        cb = block.commit_base
        q = bisect_right(cb, cb[i], i + 1)
        return q - 1 if q <= block.n else None

    def _block_resolve_outcome(self, block, i: int) -> Outcome:
        return self._block_commit_group(block, i)

    def _block_commit_group(self, block, i: int) -> Outcome:
        return [(block.commit_addr[block.commit_base[i]], 1.0)], None


class NciIlpProfiler(NciProfiler):
    """Commit-parallelism-aware NCI (Section 5.2 sensitivity study)."""

    name = "NCI+ILP"
    ilp_aware = True

    def _commit_group(self, record: CycleRecord) -> Outcome:
        share = 1.0 / len(record.committed)
        return [(c.addr, share) for c in record.committed], None

    def _block_commit_group(self, block, i: int) -> Outcome:
        lo, hi = block.commit_base[i], block.commit_base[i + 1]
        share = 1.0 / (hi - lo)
        return [(block.commit_addr[k], share)
                for k in range(lo, hi)], None
