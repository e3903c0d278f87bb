"""TIP: the Time-Proportional Instruction Profiler (Section 3).

TIP applies Oracle's attribution policies at statistically sampled cycles
using only state a lean hardware unit can maintain:

* the addresses (and valid/commit bits) of the head ROB entry in each
  bank, plus the oldest-ID bank pointer;
* the Offending Instruction Register (OIR), updated every cycle with the
  youngest committing instruction's address and its
  mispredicted/flush/exception flags;
* a Stalled flag and the Exception/Flush/Mispredicted/Front-end flags.

In the *Computing* state the sample is attributed ``1/n`` to each of the
``n`` committing instructions; in the *Stalled* state to the oldest valid
head entry; in the *Flushed* state to the OIR address; and in the
*Drained* state TIP keeps its address CSR write-enables asserted until
the first instruction dispatches, whose address then receives the sample
(a pending sample in this model).

:class:`TipIlpProfiler` is the TIP-ILP ablation of Section 5: identical,
except that a Computing-state sample goes to the oldest committing
instruction only.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Optional

from ..cpu.trace import CycleRecord
from ..isa.program import Program
from .profiler import Outcome, SamplingProfiler
from .samples import Category, stall_category
from .sampling import SampleSchedule

_FLAG_NONE = 0
_FLAG_MISPREDICT = 1
_FLAG_FLUSH = 2
_FLAG_EXCEPTION = 3


class TipProfiler(SamplingProfiler):
    """Time-proportional sampling profiler (the paper's contribution)."""

    name = "TIP"
    ilp_aware = True

    def __init__(self, schedule: SampleSchedule, program: Program):
        super().__init__(schedule)
        self.program = program
        self._oir_addr: Optional[int] = None
        self._oir_flag = _FLAG_NONE

    # -- OIR update unit (runs every cycle, Figure 5) -------------------------

    def _update_state(self, record: CycleRecord) -> None:
        if record.committed:
            youngest = record.committed[-1]
            self._oir_addr = youngest.addr
            if youngest.mispredicted:
                self._oir_flag = _FLAG_MISPREDICT
            elif youngest.flushes:
                self._oir_flag = _FLAG_FLUSH
            else:
                self._oir_flag = _FLAG_NONE
        elif record.exception is not None:
            self._oir_addr = record.exception
            self._oir_flag = _FLAG_EXCEPTION

    # -- sample selection unit (Figure 6) -------------------------------------

    def _attribute(self, record: CycleRecord) -> Optional[Outcome]:
        if record.committed:
            # Computing: the address CSRs hold the committing entries and
            # the Stalled flag is 0.
            return self._computing(record)

        if not record.rob_empty:
            # Stalled: only the oldest head entry is valid.
            category = stall_category(self.program, record.rob_head)
            return [(record.rob_head, 1.0)], category

        # Empty ROB: the OIR address is placed in address CSR 0 together
        # with its Exception/Flush/Mispredicted flag...
        if self._oir_flag == _FLAG_MISPREDICT:
            return [(self._oir_addr, 1.0)], Category.MISPREDICT
        if self._oir_flag in (_FLAG_FLUSH, _FLAG_EXCEPTION):
            return [(self._oir_addr, 1.0)], Category.MISC_FLUSH

        # ...otherwise the Front-end flag is set and the address CSRs keep
        # their write enables asserted until the first dispatch.
        return None

    def _resolve(self, record: CycleRecord) -> Optional[Outcome]:
        if record.dispatched:
            return [(record.dispatched[0], 1.0)], Category.FRONTEND
        return None

    def _computing(self, record: CycleRecord) -> Outcome:
        share = 1.0 / len(record.committed)
        weights = [(c.addr, share) for c in record.committed]
        return weights, Category.EXECUTION

    # -- columnar fast path (block engine) ------------------------------------
    #
    # The OIR mirror is only ever *read* when a sample lands on an
    # empty-ROB cycle, so instead of updating it every cycle the block
    # path reconstructs the latest OIR update at the sampled index
    # straight from the columns: the last committing record at or
    # before *i* (located by bisecting the commit prefix sum) and the
    # last exception record (located by scanning the exception flag
    # mask backwards).  A record that both commits and faults updates
    # the OIR with the commit (``_update_state`` checks commits first),
    # so a committing exception record never wins as an exception --
    # which is exactly the ``le > lc`` test below, since a committing
    # record is always <= the last committing record.

    def _oir_at(self, block, i: int):
        cb = block.commit_base
        v = cb[i + 1]
        lc = bisect_left(cb, v) - 1 if v else -1
        le = block.exc_mask.rfind(1, 0, i + 1)
        if le > lc:
            return block.exception_at(le), _FLAG_EXCEPTION
        if lc >= 0:
            meta = block.commit_meta[v - 1]
            if meta & 0x40:
                flag = _FLAG_MISPREDICT
            elif meta & 0x80:
                flag = _FLAG_FLUSH
            else:
                flag = _FLAG_NONE
            return block.commit_addr[v - 1], flag
        return self._oir_addr, self._oir_flag

    def _block_attribute(self, block, i: int) -> Optional[Outcome]:
        if block.commit_base[i + 1] > block.commit_base[i]:
            return self._block_computing(block, i)
        if not block.rob_empty_at(i):
            head = block.rob_head_at(i)
            return [(head, 1.0)], stall_category(self.program, head)
        addr, flag = self._oir_at(block, i)
        if flag == _FLAG_MISPREDICT:
            return [(addr, 1.0)], Category.MISPREDICT
        if flag in (_FLAG_FLUSH, _FLAG_EXCEPTION):
            return [(addr, 1.0)], Category.MISC_FLUSH
        return None

    def _block_scan_resolve(self, block, i: int) -> Optional[int]:
        # First dispatching record >= i, via the dispatch prefix sum.
        db = block.disp_base
        q = bisect_right(db, db[i], i + 1)
        return q - 1 if q <= block.n else None

    def _block_resolve_outcome(self, block, i: int) -> Outcome:
        first = block.disp_addr[block.disp_base[i]]
        return [(first, 1.0)], Category.FRONTEND

    def _block_update_tail(self, block) -> None:
        if block.n:
            self._oir_addr, self._oir_flag = \
                self._oir_at(block, block.n - 1)

    def _block_computing(self, block, i: int) -> Outcome:
        lo, hi = block.commit_base[i], block.commit_base[i + 1]
        share = 1.0 / (hi - lo)
        weights = [(block.commit_addr[k], share) for k in range(lo, hi)]
        return weights, Category.EXECUTION


class TipIlpProfiler(TipProfiler):
    """TIP 'minus' ILP: a Computing sample goes to one instruction."""

    name = "TIP-ILP"
    ilp_aware = False

    def _computing(self, record: CycleRecord) -> Outcome:
        oldest = record.committed[0]
        return [(oldest.addr, 1.0)], Category.EXECUTION

    def _block_computing(self, block, i: int) -> Outcome:
        oldest = block.commit_addr[block.commit_base[i]]
        return [(oldest, 1.0)], Category.EXECUTION
