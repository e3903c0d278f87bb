"""Per-cycle commit-stage trace.

The paper modified FireSim to "trace out the instruction address and the
valid, commit, exception, flush, and mispredicted flags of the head
ROB-entry in each ROB bank every cycle" and modelled all profilers
out-of-band on that trace.  :class:`CycleRecord` is our per-cycle
equivalent.  A live core writes the same fields as columns: it hands
every attached :class:`TraceObserver` one columnar block per
``DEFAULT_CHUNK_CYCLES`` cycles (and one per memoized loop period), and
blocks are transient, so arbitrarily long runs need no trace storage.
Records remain the per-cycle reference: :func:`replay`,
:func:`~repro.cpu.tracefile.replay_trace` and observers written without
a columnar path consume them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence


class CommittedInst:
    """One instruction committed in a cycle, in program order."""

    __slots__ = ("addr", "bank", "mispredicted", "flushes")

    def __init__(self, addr: int, bank: int, mispredicted: bool,
                 flushes: bool):
        self.addr = addr
        self.bank = bank
        #: The instruction was a mispredicted branch.
        self.mispredicted = mispredicted
        #: The instruction flushed the pipeline at commit (CSR, sret).
        self.flushes = flushes

    def __repr__(self) -> str:
        flags = ("M" if self.mispredicted else "") + \
            ("F" if self.flushes else "")
        return f"<commit {self.addr:#x} bank={self.bank} {flags}>"


class CycleRecord:
    """Everything the profilers may observe about one clock cycle.

    The fields are a v3 trace row's: the head of the ROB is its oldest
    entry (``rob_head``, in bank ``oldest_bank``); the other banks'
    heads are not part of the trace.
    """

    __slots__ = (
        "cycle", "committed", "rob_head", "rob_empty", "exception",
        "exception_is_ordering", "dispatched", "dispatch_pc", "fetch_pc",
        "oldest_bank",
    )

    def __init__(self, cycle: int,
                 committed: Sequence[CommittedInst],
                 rob_head: Optional[int],
                 rob_empty: bool,
                 exception: Optional[int],
                 exception_is_ordering: bool,
                 dispatched: Sequence[int],
                 dispatch_pc: Optional[int],
                 fetch_pc: int,
                 oldest_bank: int):
        self.cycle = cycle
        #: Instructions committed this cycle, oldest first.
        self.committed = committed
        #: Address of the oldest in-flight instruction after commit.
        self.rob_head = rob_head
        #: ROB is empty at the end of this cycle.
        self.rob_empty = rob_empty
        #: Address of an instruction taking a precise exception this cycle.
        self.exception = exception
        #: The "exception" is a memory-ordering mini-exception (misc flush).
        self.exception_is_ordering = exception_is_ordering
        #: Addresses entering the ROB this cycle, oldest first.
        self.dispatched = dispatched
        #: Address at the dispatch stage (head of the fetch buffer).
        self.dispatch_pc = dispatch_pc
        #: The front-end's next fetch PC (what a software sample observes).
        self.fetch_pc = fetch_pc
        #: Bank holding the oldest in-flight instruction.
        self.oldest_bank = oldest_bank

    def __repr__(self) -> str:
        return (f"<cycle {self.cycle}: commits={len(self.committed)} "
                f"head={self.rob_head and hex(self.rob_head)} "
                f"empty={self.rob_empty}>")


def shifted_record(record: CycleRecord, offset: int) -> CycleRecord:
    """A copy of *record* at ``record.cycle + offset``.

    All content fields are shared -- records carry only immutable
    tuples and ints -- so the copy is one object allocation.
    """
    return CycleRecord(
        cycle=record.cycle + offset, committed=record.committed,
        rob_head=record.rob_head, rob_empty=record.rob_empty,
        exception=record.exception,
        exception_is_ordering=record.exception_is_ordering,
        dispatched=record.dispatched, dispatch_pc=record.dispatch_pc,
        fetch_pc=record.fetch_pc, oldest_bank=record.oldest_bank)


class TraceObserver:
    """Interface for out-of-band trace consumers (profilers, collectors).

    The trace reaches an observer in two forms only.  Live runs and
    block replays call :meth:`on_block` with every batch of consecutive
    cycles: the core's open block (stepped cycles and fast-forwarded
    stall runs, closed every ``DEFAULT_CHUNK_CYCLES`` cycles and when
    the run ends), a memoized loop period under ``sim="fast"``
    (:mod:`repro.cpu.memo`), or a replayed trace chunk
    (:mod:`repro.fastpath`).  Every shipped observer but
    :class:`TraceCollector` reads those columns.  :meth:`on_cycle` takes
    one record: the per-record reference replays (:func:`replay`,
    :func:`~repro.cpu.tracefile.replay_trace`) call it, and so does the
    default :meth:`on_block`, so an observer written with only
    :meth:`on_cycle` sees every cycle a stepped run has, in order, each
    once its block closes.
    """

    def on_cycle(self, record: CycleRecord) -> None:
        raise NotImplementedError

    def on_block(self, block) -> None:
        """Consume a :class:`~repro.fastpath.CycleBlock` of records.

        The simulator and block replay hand observers whole batches of
        consecutive cycles at once.  The default implementation
        materializes each record and falls back to :meth:`on_cycle`,
        so observers that never opt in see the same records as a
        per-record replay; observers with a columnar fast path override
        this.
        """
        for record in block.records():
            self.on_cycle(record)

    def on_finish(self, final_cycle: int) -> None:
        """Called once when the simulation ends."""


class TraceCollector(TraceObserver):
    """Stores every record in memory -- for tests and small programs only."""

    def __init__(self):
        self.records: List[CycleRecord] = []
        self.final_cycle: Optional[int] = None

    def on_cycle(self, record: CycleRecord) -> None:
        self.records.append(record)

    def on_finish(self, final_cycle: int) -> None:
        self.final_cycle = final_cycle

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


def replay(records: Sequence[CycleRecord], *observers: TraceObserver) -> None:
    """Feed stored *records* through *observers* (testing helper)."""
    for record in records:
        for observer in observers:
            observer.on_cycle(record)
    final = records[-1].cycle if records else 0
    for observer in observers:
        observer.on_finish(final)
