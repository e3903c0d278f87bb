"""Dynamic instruction (micro-op) state.

A :class:`MicroOp` is one in-flight instance of a static instruction.  The
core allocates one per fetched instruction and threads it through the
fetch buffer, ROB, issue queues and LSU.  Plain attribute access on a
``__slots__`` class keeps the hot simulation loop fast.
"""

from __future__ import annotations

from collections import defaultdict
from typing import DefaultDict, Iterable, List, Optional, Sequence

from ..isa.instruction import Instruction

_NOT_DONE = 1 << 60


class MicroOp:
    """One dynamic instruction."""

    __slots__ = (
        "inst", "seq", "fetch_cycle", "visible_cycle", "dispatch_cycle",
        "issue_cycle", "done_cycle", "commit_cycle", "bank",
        "executed", "issued", "result", "eff_addr", "store_value",
        "predicted_taken", "predicted_target", "actual_taken",
        "actual_target", "mispredicted", "fault_vpn", "order_violation",
        "squashed", "src_uops", "prediction", "draining", "ready_cycle",
    )

    def __init__(self, inst: Instruction, seq: int, fetch_cycle: int,
                 visible_cycle: int):
        self.inst = inst
        self.stamp(seq, fetch_cycle, visible_cycle)

    def stamp(self, seq: int, fetch_cycle: int,
              visible_cycle: int) -> None:
        """(Re-)initialize all dynamic state for a fresh fetch.

        The static ``inst`` reference is kept, which is what lets the
        core recycle retired uops from a per-PC free list
        (:class:`MicroOpPool`) instead of re-constructing them.
        """
        self.seq = seq
        self.fetch_cycle = fetch_cycle
        #: Cycle at which the decoded uop becomes visible to dispatch.
        self.visible_cycle = visible_cycle
        self.dispatch_cycle = -1
        self.issue_cycle = -1
        self.done_cycle = _NOT_DONE
        self.commit_cycle = -1
        self.bank = -1
        self.executed = False
        self.issued = False
        self.result: Optional[float] = None
        self.eff_addr: Optional[int] = None
        self.store_value: Optional[float] = None
        self.predicted_taken = False
        #: Fall-through until fetch predicts a control instruction.
        self.predicted_target: Optional[int] = self.inst.next_addr
        self.actual_taken = False
        self.actual_target: Optional[int] = None
        self.mispredicted = False
        #: Set when address translation faulted (page fault VPN).
        self.fault_vpn: Optional[int] = None
        #: Load executed before an older, conflicting store (mini-exception).
        self.order_violation = False
        self.squashed = False
        #: Per-source producer uops (``None`` = value from the register file).
        self.src_uops: tuple = ()
        #: The TAGE prediction object (for training at commit).
        self.prediction = None
        #: Committed store still draining through the write buffer; such
        #: a uop may not be recycled until the drain completes.
        self.draining = False
        #: Cycle from which every source operand is available, cached
        #: by :meth:`sources_ready_at` (-1 until known).
        self.ready_cycle = -1

    @property
    def addr(self) -> int:
        return self.inst.addr

    def done_by(self, cycle: int) -> bool:
        """Has this uop finished execution by *cycle* (inclusive)?"""
        return self.executed and self.done_cycle <= cycle

    def sources_ready_at(self) -> int:
        """The first cycle at which this uop may issue, or -1 while a
        producer has not executed or has faulted.

        A faulting producer never broadcasts a result; its consumers
        wait and are squashed when the exception fires at the head of
        the ROB.  Otherwise every producer's ``done_cycle`` is fixed
        once it executes (only the loop memoizer's skip shifts it, and
        ``ready_cycle`` with it), so the answer is cached in
        ``ready_cycle`` and callers read that first.
        """
        ready = 0
        for producer in self.src_uops:
            if producer is None:
                continue
            if not producer.executed or producer.fault_vpn is not None:
                return -1
            if producer.done_cycle > ready:
                ready = producer.done_cycle
        self.ready_cycle = ready
        return ready

    def __repr__(self) -> str:
        return (f"<uop #{self.seq} {self.inst.op.value}@{self.inst.addr:#x} "
                f"{'done' if self.executed else 'pending'}>")


class MicroOpPool:
    """Per-PC free lists of retired :class:`MicroOp` objects.

    Constructing a uop pays an allocation plus ~20 attribute stores;
    re-stamping a recycled one for the same PC keeps the static
    ``inst`` reference and skips the allocation.  The core releases
    uops once nothing can reference them any more (squashed uops
    immediately, committed uops once every older in-flight consumer
    has left the ROB) and acquires from the free list at fetch.
    """

    __slots__ = ("_free",)

    def __init__(self):
        self._free: DefaultDict[int, List[MicroOp]] = defaultdict(list)

    def acquire(self, insts: Sequence[Instruction], seq: int,
                fetch_cycle: int, visible_cycle: int) -> List[MicroOp]:
        """One fresh uop per instruction of *insts* (a fetch group),
        numbered from *seq* in order."""
        free = self._free
        uops = []
        for inst in insts:
            stack = free.get(inst.addr)
            if stack:
                uop = stack.pop()
                uop.stamp(seq, fetch_cycle, visible_cycle)
            else:
                uop = MicroOp(inst, seq, fetch_cycle, visible_cycle)
            uops.append(uop)
            seq += 1
        return uops

    def release(self, uops: Iterable[MicroOp]) -> None:
        """Return *uops* to their free lists."""
        free = self._free
        for uop in uops:
            free[uop.inst.addr].append(uop)
