"""The out-of-order core.

A cycle-driven model of a BOOM-style superscalar processor: in-order
front-end (fetch with branch prediction, decode, dispatch), out-of-order
issue and execution, and in-order commit through a banked ROB.  Every
cycle, stepped or skipped under ``sim="fast"``, becomes one row of the
commit-stage trace in columnar :class:`~repro.fastpath.block.CycleBlock`
form; the attached trace observers -- the Oracle, TIP and all baseline
profilers -- consume those blocks out-of-band, exactly mirroring the
paper's FireSim methodology.

The model is a *timing* simulator with embedded functional execution:
instruction semantics run when a uop issues, architectural state (register
file, memory, fflags) is updated at commit, and squashes discard the
speculative results that were carried on the uops.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from operator import attrgetter
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..fastpath.block import (_F_DISP_PC, _F_EMPTY, _F_EXC, _F_HEAD,
                              _F_ORD, _M_FLUSHES, _M_MISPREDICT,
                              _ROW_COMMITS, _ROW_DISPATCHED, CycleBlock)
from ..isa.instruction import Register
from ..isa.opcodes import Kind, Op, Unit
from ..isa.program import Program
from ..isa.semantics import evaluate
from ..mem.hierarchy import MemoryHierarchy
from ..mem.tlb import vpn_of
from .branch import BranchTargetBuffer, ReturnAddressStack, TagePredictor
from .config import CoreConfig
from .trace import TraceObserver
from .tracefile import DEFAULT_CHUNK_CYCLES
from .uop import MicroOp, MicroOpPool

_WORD_SHIFT = 3  # conflict detection at 8-byte granularity


class SimulationError(RuntimeError):
    """Raised when the simulated program does something unsupported."""


class MaxCyclesExceeded(SimulationError):
    """The program did not halt within the ``max_cycles`` budget.

    A distinct outcome (not normal completion): callers surface it and
    the simulation cache never stores such a truncated run.
    """

    def __init__(self, max_cycles: int):
        super().__init__(
            f"program did not halt within {max_cycles} cycles")
        self.max_cycles = max_cycles


class SimFastError(SimulationError):
    """Paranoid fast-forward cross-check failed.

    Raised when a region the quiescence detector claimed was a uniform
    stall produced a different record under single-stepping -- i.e. a
    bug in :meth:`Core._quiet_until`, never in the program.
    """


#: ``Core.run`` simulation modes.
STEP_SIM = "step"
FAST_SIM = "fast"
SIM_MODES = (STEP_SIM, FAST_SIM)


class CoreStats:
    """Aggregate statistics of one simulation run."""

    __slots__ = ("cycles", "committed", "fetched",
                 "branch_mispredicts", "csr_flushes", "exceptions",
                 "ordering_flushes", "commit_hist",
                 "sampling_interrupts", "fast_forwarded",
                 "steady_state_iterations", "steady_state_cycles")

    #: Fields persisted by the simulation cache (everything needed to
    #: reconstruct the stats of a cached run).
    FIELDS = ("cycles", "committed", "fetched", "branch_mispredicts",
              "csr_flushes", "exceptions", "ordering_flushes",
              "commit_hist", "sampling_interrupts", "fast_forwarded",
              "steady_state_iterations", "steady_state_cycles")

    #: Fields describing how the run was *driven* rather than what the
    #: program did: they legitimately differ between ``sim="step"`` and
    #: ``sim="fast"`` runs of the same program, so bit-identity checks
    #: (the bench checksum gate, the fast-vs-step tests) exclude them.
    DRIVER_FIELDS = ("fast_forwarded", "steady_state_iterations",
                     "steady_state_cycles")

    def __init__(self):
        self.cycles = 0
        self.committed = 0
        self.fetched = 0
        self.branch_mispredicts = 0
        self.csr_flushes = 0
        self.exceptions = 0
        self.ordering_flushes = 0
        self.commit_hist = [0] * 16
        self.sampling_interrupts = 0
        #: Cycles emitted by the event-driven stall fast-forward or the
        #: steady-state loop memoizer (0 in ``sim="step"`` runs; the
        #: trace is identical either way).
        self.fast_forwarded = 0
        #: Whole loop iterations skipped by the steady-state memoizer.
        self.steady_state_iterations = 0
        #: Cycles covered by memoized loop iterations (a subset of
        #: ``fast_forwarded``).
        self.steady_state_cycles = 0

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.FIELDS}

    @classmethod
    def from_dict(cls, payload: dict) -> "CoreStats":
        stats = cls()
        for name in cls.FIELDS:
            if name in payload:
                setattr(stats, name, payload[name])
        return stats

    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0

    def __repr__(self) -> str:
        return (f"<stats cycles={self.cycles} insts={self.committed} "
                f"ipc={self.ipc:.2f} mispredicts={self.branch_mispredicts}>")


class Core:
    """A single out-of-order core executing one program."""

    def __init__(self, program: Program, config: Optional[CoreConfig] = None,
                 hierarchy: Optional[MemoryHierarchy] = None,
                 kernel=None):
        self.config = config or CoreConfig.boom_4wide()
        self.program = program
        self.hierarchy = hierarchy or MemoryHierarchy(self.config.memory)
        #: Kernel model providing ``handler_entry`` and ``on_page_fault``.
        self.kernel = kernel

        # Architectural state.
        self.regs: List = [0] * Register.TOTAL
        self.memory: Dict[int, float] = dict(program.data)
        self.fflags = 0
        self.epc = 0

        # Front-end state.
        self.fetch_pc = program.entry
        self.fetch_ready_cycle = 0
        self._last_fetch_block: Optional[int] = None
        self.fetch_buffer: Deque[MicroOp] = deque()
        #: Fetch groups by start PC (:meth:`_fetch_group`).
        self._groups: Dict[int, tuple] = {}
        self.predictor = TagePredictor()
        self.btb = BranchTargetBuffer(self.config.btb_entries)
        self.ras = ReturnAddressStack(self.config.ras_entries)
        self.outstanding_branches = 0

        # Back-end state.
        self.rob: Deque[MicroOp] = deque()
        self.int_iq: List[MicroOp] = []
        self.mem_iq: List[MicroOp] = []
        self.fp_iq: List[MicroOp] = []
        #: Each unit's issue queue and its capacity.
        cfg = self.config
        self._iq_of: Dict[Unit, Tuple[List[MicroOp], int]] = {
            unit: (self.int_iq, cfg.int_iq_entries) for unit in Unit}
        self._iq_of[Unit.MEM] = (self.mem_iq, cfg.mem_iq_entries)
        self._iq_of[Unit.FP] = (self.fp_iq, cfg.fp_iq_entries)
        self.load_queue: List[MicroOp] = []
        self.store_queue: List[MicroOp] = []
        self._store_drains: List[Tuple[int, MicroOp]] = []
        self.producers: Dict[int, MicroOp] = {}
        self.serialize_uop: Optional[MicroOp] = None
        self._resolve_queue: List[MicroOp] = []
        self._next_bank = 0
        self._next_seq = 0

        self.cycle = 0
        self.halted = False
        self.stats = CoreStats()
        self.observers: List[TraceObserver] = []

        # Sampling-interrupt support (Section 3.2 overhead experiment):
        # when a schedule fires, the core traps to a perf handler that
        # copies the sample to memory, then resumes via sret.
        self.sampling_schedule = None
        self.sampling_handler_entry: Optional[int] = None
        self._interrupt_pending = False
        self._in_trap = False

        # Per-cycle scratch (rebuilt each cycle).
        self._committed_now: List[int] = []
        self._commit_metas: List[int] = []
        self._dispatched_now: List[int] = []
        self._exception_now: Optional[int] = None
        self._exception_ordering = False
        #: The row emitted for the most recent stepped cycle.
        self._last_row: Optional[tuple] = None
        #: The open block: its columns, then the stepped rows not yet
        #: columnarized (none while no observer is attached).
        self._open = CycleBlock.open(0, self.config.rob_banks)
        self._rows: List[tuple] = []
        #: Steady-state memoizer hook: when set, called with each uop
        #: at the moment it commits (after its architectural effects).
        self._commit_probe: Optional[Callable[[MicroOp], None]] = None

        # Micro-op recycling: fetch stamps pre-decoded per-PC templates
        # from a free list instead of constructing fresh MicroOps.
        # Committed uops park in ``_retired`` until every older
        # in-flight uop has left the ROB (nothing can then hold a
        # ``src_uops`` reference to them); squashed uops recycle
        # immediately (the squash severs all references).
        self._uop_pool = MicroOpPool()
        self._retired: Deque[Tuple[int, MicroOp]] = deque()

    # -- public API -----------------------------------------------------------

    def attach(self, observer: TraceObserver) -> None:
        self.observers.append(observer)

    def run(self, max_cycles: int = 10_000_000, sim: str = STEP_SIM,
            paranoid: bool = False) -> CoreStats:
        """Run until the program halts (or *max_cycles* elapse).

        Every cycle reaches the observers as part of a
        :class:`~repro.fastpath.block.CycleBlock` (``on_block``): the
        core appends each stepped cycle to one open block and hands it
        out once it holds ``DEFAULT_CHUNK_CYCLES`` cycles, when the run
        ends, and before any exception leaves this method (so a
        sanitizer fault on those cycles is raised instead).

        ``sim="fast"`` enables the event-driven stall fast-forward:
        whenever :meth:`_quiet_until` proves that no pipeline stage can
        make progress before a known future event, the intervening
        identical stall cycles join the open block as one run.  It also
        enables the steady-state loop memoizer
        (:class:`~repro.cpu.memo.LoopMemoizer`): once the full pipeline
        state is proven periodic, whole loop iterations are skipped and
        handed to observers as one block of their own, after the open
        block.  The emitted trace and all observer results are
        bit-identical to ``sim="step"``.  *paranoid* cross-checks every
        fast-forwarded region and every memoized skip against
        single-stepping (raising :class:`SimFastError` on divergence)
        at single-step speed.

        Raises :class:`MaxCyclesExceeded` (a distinct
        :class:`SimulationError`) when the budget runs out.
        """
        if sim not in SIM_MODES:
            raise ValueError(f"unknown sim mode {sim!r} "
                             f"(expected one of {SIM_MODES})")
        fast = sim == FAST_SIM
        memo = None
        if fast:
            from .memo import LoopMemoizer  # local: avoids import cycle
            memo = LoopMemoizer(self, max_cycles, paranoid)
        try:
            while not self.halted:
                if self.cycle >= max_cycles:
                    raise MaxCyclesExceeded(max_cycles)
                # Only pay for the quiescence scan once the pipeline
                # shows signs of stalling (the previous cycle neither
                # committed nor dispatched); at worst this single-steps
                # the first cycle of a stall region before batching the
                # rest.
                last = self._last_row
                if fast and (last is None
                             or (not last[_ROW_COMMITS]
                                 and not last[_ROW_DISPATCHED])):
                    target = self._quiet_until()
                    if target is not None:
                        n = min(target, max_cycles) - self.cycle
                        if n > 0:
                            if paranoid:
                                self._paranoid_forward(n)
                            else:
                                self._fast_forward(n)
                            self.stats.fast_forwarded += n
                            memo.note_break()
                            continue
                self.step()
                if memo is not None and not self.halted:
                    memo.after_step()
        finally:
            self._close_block(self.cycle)
        self.stats.cycles = self.cycle
        for observer in self.observers:
            observer.on_finish(self.cycle)
        return self.stats

    def step(self) -> None:
        """Advance the core by one clock cycle.

        The cycle's row joins the open block; observers see it when
        the block closes or :meth:`run` ends.
        """
        cycle = self.cycle
        self._committed_now = []
        self._commit_metas = []
        self._dispatched_now = []
        self._exception_now = None
        self._exception_ordering = False

        if self.sampling_schedule is not None and \
                self.sampling_schedule.is_sample(cycle):
            self._interrupt_pending = True

        self._resolve_branches(cycle)
        self._commit_stage(cycle)
        self._drain_stores(cycle)
        self._issue_stage(cycle)
        self._dispatch_stage(cycle)
        self._fetch_stage(cycle)
        self._emit_row()
        self.cycle = cycle + 1

    # -- event-driven stall fast-forward (repro.simfast) ----------------------

    def _quiet_until(self) -> Optional[int]:
        """Next-event cycle if the whole pipeline is provably stalled.

        Returns the earliest future cycle at which any stage could make
        progress, or ``None`` when some stage can act *this* cycle (or
        no future event is known; the caller then single-steps).  Every
        time-dependent blockage contributes an event (FU writebacks,
        cache fills via ``done_cycle``/``fetch_ready_cycle``, store
        drains, decode latency, the next sampling interrupt); purely
        structural blockages (full queues, wrong-path fetch, serialize
        barriers) are bounded transitively by the events of whatever
        must drain them.  Between now and the returned cycle every
        ``step()`` would be a no-op emitting the identical stall
        record -- the invariant ``--paranoid`` re-checks by stepping.
        """
        cycle = self.cycle
        if self._interrupt_pending:
            return None
        events: List[int] = []
        schedule = self.sampling_schedule
        if schedule is not None:
            next_sample = schedule.next_sample
            if next_sample <= cycle:
                return None
            events.append(next_sample)

        # Branch resolution: any resolvable branch acts this cycle.
        for uop in self._resolve_queue:
            if uop.squashed:
                continue
            if uop.done_cycle <= cycle:
                return None
            events.append(uop.done_cycle)

        # Commit: a done head commits/excepts/flushes, unless it is a
        # store stalled on a full write buffer (bounded by the drains).
        rob = self.rob
        if rob:
            head = rob[0]
            if head.done_by(cycle):
                if head.fault_vpn is not None or head.order_violation \
                        or not head.inst.is_store or \
                        len(self._store_drains) < \
                        self.config.store_buffer_entries:
                    return None
            elif head.executed:
                events.append(head.done_cycle)

        # Store drains: completion frees the SQ entry.
        for done, _uop in self._store_drains:
            if done <= cycle:
                return None
            events.append(done)

        # Issue: a uop whose producers have all broadcast issues this
        # cycle -- except a load waiting on store-forward data.
        for iq in (self.int_iq, self.mem_iq, self.fp_iq):
            for uop in iq:
                ready = uop.ready_cycle
                if ready < 0:
                    ready = uop.sources_ready_at()
                    if ready < 0:
                        # Bounded transitively: the producer is itself
                        # in an issue queue, or awaiting its exception.
                        continue
                if ready > cycle:
                    events.append(ready)
                    continue
                inst = uop.inst
                if inst.is_load and inst.kind is not Kind.ATOMIC:
                    # Pure re-check of the forward-wait condition.
                    result = evaluate(inst, self._operands(uop),
                                      self.fflags)
                    if self._try_forward(uop, result.eff_addr) \
                            is _FORWARD_WAIT:
                        continue  # behind a dataless older store
                return None

        # Dispatch: the fetch-buffer head enters the ROB unless gated.
        cfg = self.config
        if self.fetch_buffer and self.serialize_uop is None:
            uop = self.fetch_buffer[0]
            if uop.visible_cycle > cycle:
                events.append(uop.visible_cycle)
            else:
                inst = uop.inst
                iq, capacity = self._iq_of[inst.unit]
                blocked = (
                    (inst.is_serializing
                     and (rob or self.store_queue))
                    or len(rob) >= cfg.rob_entries
                    or len(iq) >= capacity
                    or (inst.is_load and len(self.load_queue)
                        >= cfg.load_queue_entries)
                    or (inst.is_store and len(self.store_queue)
                        >= cfg.store_queue_entries))
                if not blocked:
                    return None

        # Fetch: the front-end advances (touching the I-cache) unless
        # waiting on a fill, a full buffer, the in-flight branch cap,
        # or a wrong-path PC outside the text segment.
        if cycle < self.fetch_ready_cycle:
            events.append(self.fetch_ready_cycle)
        elif len(self.fetch_buffer) < cfg.fetch_buffer_entries and \
                self.outstanding_branches < \
                cfg.max_outstanding_branches and \
                self.program.fetch(self.fetch_pc) is not None:
            return None

        if not events:
            return None  # total deadlock; stepping will hit max_cycles
        target = min(events)
        return target if target > cycle else None

    def _fast_forward(self, count: int) -> None:
        """Append *count* identical stall rows to the open block."""
        self.cycle += count
        if not self.observers:
            return
        block = self._seal()
        block.append_run(self._row([], [], [], None, False), count)
        if block.n >= DEFAULT_CHUNK_CYCLES:
            self._close_block(self.cycle)

    def _paranoid_forward(self, count: int) -> None:
        """Single-step a claimed stall region, checking every row."""
        template = self._row([], [], [], None, False)
        end = self.cycle + count
        while self.cycle < end:
            expected_cycle = self.cycle
            self.step()
            if self._last_row != template:
                raise SimFastError(
                    f"fast-forward divergence at cycle "
                    f"{expected_cycle}: expected uniform stall "
                    f"{template!r}, stepped to {self._last_row!r}")

    # -- branch resolution ----------------------------------------------------

    def _resolve_branches(self, cycle: int) -> None:
        pending = self._resolve_queue
        if not pending:
            return
        pending.sort(key=_SEQ)  # oldest first, whatever the issue order
        self._resolve_queue = []
        for uop in pending:
            if uop.squashed:
                continue
            if uop.done_cycle > cycle:
                self._resolve_queue.append(uop)
                continue
            self.outstanding_branches = max(0, self.outstanding_branches - 1)
            if uop.mispredicted:
                self.stats.branch_mispredicts += 1
                self._squash_after(uop.seq, uop.actual_target, cycle)

    # -- commit ---------------------------------------------------------------

    def _commit_stage(self, cycle: int) -> None:
        if self._interrupt_pending and not self._in_trap and self.rob \
                and self.rob[0].fault_vpn is None:
            self._take_sampling_interrupt(cycle)
            return
        width = self.config.commit_width
        while self.rob and len(self._committed_now) < width:
            head = self.rob[0]
            if not head.done_by(cycle):
                break

            if head.fault_vpn is not None:
                if self._committed_now:
                    break  # the exception fires alone, next cycle
                self._take_exception(head, cycle)
                break

            if head.order_violation:
                if self._committed_now:
                    break
                self._take_ordering_flush(head, cycle)
                break

            # Stores need a free write-buffer slot to commit; a full
            # buffer of in-flight drains stalls the store at the ROB head.
            if head.inst.is_store and \
                    len(self._store_drains) >= \
                    self.config.store_buffer_entries:
                break

            self._commit_one(head, cycle)

            if head.inst.flushes_on_commit:
                self._flush_after_commit(head, cycle)
                break
            if head.inst.is_halt:
                self.halted = True
                break

    def _commit_one(self, uop: MicroOp, cycle: int) -> None:
        inst = uop.inst
        self.rob.popleft()
        uop.commit_cycle = cycle
        self.stats.committed += 1

        # Architectural register update.
        if inst.rd is not None and inst.rd != 0:
            self.regs[inst.rd] = uop.result
        if self.producers.get(inst.rd) is uop:
            del self.producers[inst.rd]

        # Memory update and store-drain initiation.
        if inst.is_store:
            self.memory[uop.eff_addr] = uop.store_value
            outcome = self.hierarchy.data_access(uop.eff_addr, cycle,
                                                 is_write=True)
            self._store_drains.append((cycle + outcome.latency, uop))
        if inst.is_load and uop in self.load_queue:
            self.load_queue.remove(uop)

        # CSR side effects.
        if inst.op is Op.FSFLAGS:
            self.fflags = int(self._operand_value(uop, 0))
            self.stats.csr_flushes += 1
        elif inst.op in (Op.FRFLAGS, Op.CSRRW, Op.ECALL):
            self.stats.csr_flushes += 1

        # Predictor training.
        if inst.is_branch and uop.prediction is not None:
            self.predictor.update(inst.addr, uop.actual_taken, uop.prediction)
        if uop.actual_taken and uop.actual_target is not None and \
                inst.is_control:
            self.btb.insert(inst.addr, uop.actual_target)

        if self.serialize_uop is uop:
            self.serialize_uop = None

        # Queue the uop for recycling.  It may still be referenced as a
        # source by younger in-flight consumers (``src_uops``), so it is
        # only released once every uop that could hold such a reference
        # has itself left the ROB -- see :meth:`_harvest_retired`.
        uop.draining = inst.is_store
        self._retired.append((self._next_seq, uop))

        if self._commit_probe is not None:
            self._commit_probe(uop)
        self._committed_now.append(inst.addr)
        self._commit_metas.append(
            (uop.bank & 0x3F) | (_M_MISPREDICT if uop.mispredicted else 0)
            | (_M_FLUSHES if inst.flushes_on_commit else 0))

    def _flush_after_commit(self, uop: MicroOp, cycle: int) -> None:
        """Pipeline flush triggered by a committing CSR/sret instruction."""
        if uop.inst.op is Op.SRET:
            target = self.epc
            self._in_trap = False
        else:
            target = uop.inst.next_addr
        self._squash_after(uop.seq, target, cycle)
        self.fetch_ready_cycle += self.config.flush_refill_penalty

    def _take_exception(self, uop: MicroOp, cycle: int) -> None:
        """A precise page-fault exception at the head of the ROB."""
        if self.kernel is None:
            raise SimulationError(
                f"page fault at {uop.addr:#x} (vpn {uop.fault_vpn:#x}) "
                "but no kernel is attached")
        self.stats.exceptions += 1
        self._in_trap = True
        self.epc = uop.addr
        handler_entry = self.kernel.on_page_fault(uop.fault_vpn, cycle)
        self._exception_now = uop.addr
        self._exception_ordering = False
        self._squash_from(uop.seq, handler_entry, cycle)
        self.fetch_ready_cycle += self.config.flush_refill_penalty

    def _take_sampling_interrupt(self, cycle: int) -> None:
        """Trap to the perf sample-collection handler.

        The oldest in-flight instruction becomes the resume point; the
        handler copies the sample to the perf buffer and returns with
        ``sret``, after which execution re-fetches from the EPC.
        """
        self.stats.sampling_interrupts += 1
        self._interrupt_pending = False
        self._in_trap = True
        head = self.rob[0]
        self.epc = head.addr
        self._squash_from(head.seq, self.sampling_handler_entry, cycle)
        self.fetch_ready_cycle += self.config.flush_refill_penalty

    def _take_ordering_flush(self, uop: MicroOp, cycle: int) -> None:
        """Memory-ordering mini-exception: replay from the offending load."""
        self.stats.ordering_flushes += 1
        self._exception_now = uop.addr
        self._exception_ordering = True
        self._squash_from(uop.seq, uop.addr, cycle)
        self.fetch_ready_cycle += self.config.flush_refill_penalty

    # -- squash ---------------------------------------------------------------

    def _squash_after(self, seq: int, refetch_pc: int, cycle: int) -> None:
        self._squash_from(seq + 1, refetch_pc, cycle)

    def _squash_from(self, seq: int, refetch_pc: int, cycle: int) -> None:
        """Discard every uop with sequence number >= *seq* and redirect."""
        def keep(items):
            return [u for u in items if u.seq < seq]

        # The ROB is in sequence order: the squashed uops are its tail.
        squashed: List[MicroOp] = []
        rob = self.rob
        while rob and rob[-1].seq >= seq:
            uop = rob.pop()
            uop.squashed = True
            squashed.append(uop)
        for iq in (self.int_iq, self.mem_iq, self.fp_iq):
            iq[:] = keep(iq)  # in place: ``_iq_of`` holds the queues
        self.load_queue = keep(self.load_queue)
        self.store_queue = [u for u in self.store_queue
                            if u.seq < seq or u.commit_cycle >= 0]
        for uop in self.fetch_buffer:
            uop.squashed = True
            squashed.append(uop)
        self.fetch_buffer.clear()
        self._resolve_queue = keep(self._resolve_queue)

        # Rebuild the rename map from the surviving in-flight uops.
        self.producers.clear()
        for uop in self.rob:
            rd = uop.inst.rd
            if rd is not None and rd != 0:
                self.producers[rd] = uop

        if self.serialize_uop is not None and self.serialize_uop.seq >= seq:
            self.serialize_uop = None
        self.outstanding_branches = sum(
            1 for u in self.rob
            if (u.inst.is_branch or u.inst.is_return) and not u.executed)

        self._next_bank = ((self.rob[-1].bank + 1) % self.config.rob_banks
                           if self.rob else 0)
        self.fetch_pc = refetch_pc
        # A redirect cancels any in-progress fetch stall; the new target
        # performs its own I-cache access.
        self.fetch_ready_cycle = cycle + 1
        self._last_fetch_block = None

        # Squashing severed every reference to the discarded uops (any
        # consumer holding them in ``src_uops`` is strictly younger and
        # was discarded too), so they recycle immediately.
        self._uop_pool.release(squashed)

    def _harvest_retired(self) -> None:
        """Recycle committed uops no in-flight consumer can reference.

        A committed uop may still be read through ``src_uops`` by any
        uop that was in flight when it committed (operand reads at
        issue, the FSFLAGS operand read at commit).  Each retired entry
        therefore carries a snapshot of ``_next_seq`` taken at commit;
        once the ROB head's sequence number reaches that snapshot (or
        the ROB empties), every possible consumer has itself committed
        or been squashed.  Committed stores additionally wait for their
        write-buffer drain (``draining``) because ``_store_drains`` and
        the store queue still hold them.
        """
        retired = self._retired
        rob = self.rob
        min_seq = rob[0].seq if rob else self._next_seq
        free = []
        while retired:
            snapshot, uop = retired[0]
            if snapshot > min_seq or uop.draining:
                break
            retired.popleft()
            free.append(uop)
        if free:
            self._uop_pool.release(free)

    # -- stores draining to memory --------------------------------------------

    def _drain_stores(self, cycle: int) -> None:
        if not self._store_drains:
            return
        remaining = []
        for done, uop in self._store_drains:
            if done <= cycle:
                if uop in self.store_queue:
                    self.store_queue.remove(uop)
                uop.draining = False
            else:
                remaining.append((done, uop))
        self._store_drains = remaining

    # -- issue / execute ------------------------------------------------------

    def _issue_stage(self, cycle: int) -> None:
        cfg = self.config
        if self.int_iq:
            self._issue_from(self.int_iq, cfg.int_issue_width, cycle)
        if self.mem_iq:
            self._issue_from(self.mem_iq, cfg.mem_issue_width, cycle)
        if self.fp_iq:
            self._issue_from(self.fp_iq, cfg.fp_issue_width, cycle)

    def _issue_from(self, iq: List[MicroOp], width: int, cycle: int) -> None:
        """Issue up to *width* ready uops of *iq*, oldest first."""
        issued: List[MicroOp] = []
        for uop in iq:
            ready = uop.ready_cycle
            if ready < 0:
                ready = uop.sources_ready_at()
                if ready < 0:
                    continue
            if ready > cycle:
                continue
            if uop.inst.is_mem:
                if not self._issue_mem(uop, cycle):
                    continue
            else:
                self._issue_alu(uop, cycle)
            issued.append(uop)
            if len(issued) >= width:
                break
        for uop in issued:
            iq.remove(uop)

    def _operand_value(self, uop: MicroOp, index: int):
        producer = uop.src_uops[index]
        if producer is not None:
            return producer.result
        return self.regs[uop.inst.sources[index]]

    def _operands(self, uop: MicroOp) -> tuple:
        # ``regs[0]`` is x0: commit never writes it, so it reads 0.
        regs = self.regs
        return tuple([regs[reg] if producer is None else producer.result
                      for reg, producer
                      in zip(uop.inst.sources, uop.src_uops)])

    def _issue_alu(self, uop: MicroOp, cycle: int) -> None:
        inst = uop.inst
        result = evaluate(inst, self._operands(uop), self.fflags)
        uop.result = result.value
        uop.issued = True
        uop.issue_cycle = cycle
        uop.executed = True
        uop.done_cycle = cycle + inst.latency
        if inst.is_control:
            uop.actual_taken = result.taken
            uop.actual_target = (result.target if result.taken
                                 else inst.next_addr)
            uop.mispredicted = uop.actual_target != uop.predicted_target
            if inst.is_branch or inst.is_return:
                self._resolve_queue.append(uop)

    def _issue_mem(self, uop: MicroOp, cycle: int) -> bool:
        inst = uop.inst
        result = evaluate(inst, self._operands(uop), self.fflags)
        eff_addr = result.eff_addr
        agu = self.config.agu_latency

        if inst.kind is Kind.ATOMIC:
            old = self.memory.get(eff_addr, 0)
            outcome = self.hierarchy.data_access(eff_addr, cycle + agu)
            if outcome.fault:
                return self._mem_fault(uop, eff_addr, cycle, agu, outcome)
            uop.eff_addr = eff_addr
            uop.result = old
            uop.store_value = old + result.store_value
            uop.issued = uop.executed = True
            uop.issue_cycle = cycle
            uop.done_cycle = cycle + agu + outcome.latency + 1
            return True

        if inst.is_store:
            # Translate and prefetch-for-ownership at execute; the store
            # itself completes once its address and data are known, and the
            # data drains to the cache after commit.
            outcome = self.hierarchy.data_access(eff_addr, cycle + agu)
            if outcome.fault:
                return self._mem_fault(uop, eff_addr, cycle, agu, outcome)
            uop.eff_addr = eff_addr
            uop.store_value = result.store_value
            uop.issued = uop.executed = True
            uop.issue_cycle = cycle
            uop.done_cycle = cycle + agu
            if self.config.enable_ordering_violations:
                self._check_ordering(uop)
            return True

        # Loads: try store-to-load forwarding first.
        forwarded = self._try_forward(uop, eff_addr)
        if forwarded is _FORWARD_WAIT:
            return False
        uop.eff_addr = eff_addr
        uop.issued = True
        uop.issue_cycle = cycle
        if forwarded is not _NO_FORWARD:
            uop.result = forwarded
            uop.executed = True
            uop.done_cycle = cycle + agu + self.config.store_forward_latency
            return True

        outcome = self.hierarchy.data_access(eff_addr, cycle + agu)
        if outcome.fault:
            return self._mem_fault(uop, eff_addr, cycle, agu, outcome)
        uop.result = self.memory.get(eff_addr, 0)
        uop.executed = True
        uop.done_cycle = cycle + agu + outcome.latency
        return True

    def _mem_fault(self, uop: MicroOp, eff_addr: int, cycle: int,
                   agu: int, outcome) -> bool:
        uop.eff_addr = eff_addr
        uop.fault_vpn = vpn_of(eff_addr)
        uop.issued = uop.executed = True
        uop.issue_cycle = cycle
        uop.done_cycle = cycle + agu + outcome.latency
        return True

    def _try_forward(self, load: MicroOp, eff_addr: int):
        """Scan older stores in the SQ; youngest conflicting one wins."""
        word = eff_addr >> _WORD_SHIFT
        for store in reversed(self.store_queue):
            if store.seq >= load.seq:
                continue
            if not store.executed:
                continue  # unknown address: speculate past it
            if store.eff_addr is not None and \
                    (store.eff_addr >> _WORD_SHIFT) == word:
                if store.store_value is None:
                    return _FORWARD_WAIT
                return store.store_value
        return _NO_FORWARD

    def _check_ordering(self, store: MicroOp) -> None:
        """Flag younger, already-executed loads to the same word."""
        word = store.eff_addr >> _WORD_SHIFT
        for load in self.load_queue:
            if load.seq > store.seq and load.executed and \
                    load.eff_addr is not None and \
                    (load.eff_addr >> _WORD_SHIFT) == word and \
                    load.fault_vpn is None:
                load.order_violation = True

    # -- dispatch -------------------------------------------------------------

    def _dispatch_stage(self, cycle: int) -> None:
        buffer = self.fetch_buffer
        if not buffer or self.serialize_uop is not None:
            return
        cfg = self.config
        rob = self.rob
        iq_of = self._iq_of
        producers = self.producers
        load_queue, store_queue = self.load_queue, self.store_queue
        dispatched = self._dispatched_now
        banks = cfg.rob_banks
        bank = self._next_bank
        for _ in range(min(cfg.decode_width, len(buffer),
                           cfg.rob_entries - len(rob))):
            uop = buffer[0]
            if uop.visible_cycle > cycle:
                break
            inst = uop.inst
            if inst.is_serializing and (rob or store_queue):
                break
            iq, capacity = iq_of[inst.unit]
            if len(iq) >= capacity:
                break
            if inst.is_mem:
                if inst.is_load and \
                        len(load_queue) >= cfg.load_queue_entries:
                    break
                if inst.is_store and \
                        len(store_queue) >= cfg.store_queue_entries:
                    break

            buffer.popleft()
            uop.dispatch_cycle = cycle
            uop.bank = bank
            bank = (bank + 1) % banks
            # ``producers`` never maps x0, so x0 reads the register file.
            uop.src_uops = tuple(map(producers.get, inst.sources))
            rd = inst.rd
            if rd is not None and rd != 0:
                producers[rd] = uop
            rob.append(uop)
            iq.append(uop)
            if inst.is_mem:
                if inst.is_load and inst.kind is not Kind.ATOMIC:
                    load_queue.append(uop)
                if inst.is_store:
                    store_queue.append(uop)
            dispatched.append(inst.addr)
            if inst.is_serializing:
                self.serialize_uop = uop
                break
        self._next_bank = bank

    # -- fetch ----------------------------------------------------------------

    def _fetch_stage(self, cycle: int) -> None:
        if self._retired:
            self._harvest_retired()
        if self.halted or cycle < self.fetch_ready_cycle:
            return
        cfg = self.config
        buffer = self.fetch_buffer
        room = min(cfg.fetch_width,
                   cfg.fetch_buffer_entries - len(buffer))
        if room <= 0:
            return
        block_size = cfg.memory.block_size
        groups = self._groups
        acquire = self._uop_pool.acquire
        visible = cycle + cfg.frontend_latency
        seq = self._next_seq
        while room > 0:
            if self.outstanding_branches >= cfg.max_outstanding_branches:
                break
            pc = self.fetch_pc
            group = groups.get(pc)
            if group is None:
                group = groups[pc] = self._fetch_group(pc)
            if not group:
                break  # off the text segment (wrong path); wait for redirect

            block = pc // block_size
            if block != self._last_fetch_block:
                outcome = self.hierarchy.inst_fetch(pc, cycle)
                self._last_fetch_block = block
                if outcome.latency > cfg.memory.l1i_latency + 1:
                    self.fetch_ready_cycle = cycle + outcome.latency
                    break

            if len(group) > room:
                group = group[:room]  # the next cycle resumes mid-group
            uops = acquire(group, seq, cycle, visible)
            buffer.extend(uops)
            seq += len(uops)
            room -= len(uops)
            inst = group[-1]
            if inst.is_control:
                if self._predict(uops[-1], cycle):
                    break
            else:
                self.fetch_pc = inst.next_addr
        self.stats.fetched += seq - self._next_seq
        self._next_seq = seq

    def _fetch_group(self, pc: int) -> tuple:
        """The instructions fetch takes in one go from *pc*.

        A group is the straight-line run from *pc*: it ends after the
        first control instruction or at the end of *pc*'s cache block,
        whichever comes first, and is empty when *pc* is off the text.
        The program text is static, so the core builds each group once.
        """
        fetch = self.program.fetch
        block_size = self.config.memory.block_size
        block = pc // block_size
        group = []
        inst = fetch(pc)
        while inst is not None:
            group.append(inst)
            if inst.is_control or inst.next_addr // block_size != block:
                break
            inst = fetch(inst.next_addr)
        return tuple(group)

    def _predict(self, uop: MicroOp, cycle: int) -> bool:
        """Predict control flow for a fetched uop; returns True on redirect.

        A uop's ``predicted_target`` is its fall-through address until
        this sets another one.
        """
        inst = uop.inst
        if inst.is_branch:
            prediction = self.predictor.predict(inst.addr)
            uop.prediction = prediction
            self.outstanding_branches += 1
            if prediction.taken:
                uop.predicted_taken = True
                uop.predicted_target = inst.imm
                if self.btb.lookup(inst.addr) is None:
                    # Target resolved at decode: short front-end bubble.
                    self.fetch_ready_cycle = \
                        cycle + self.config.btb_miss_penalty
                self.fetch_pc = inst.imm
                return True
            self.fetch_pc = inst.next_addr
            return False

        if inst.is_call:
            if inst.rd in (Register.x(1), Register.x(2)):
                self.ras.push(inst.next_addr)
            uop.predicted_taken = True
            uop.predicted_target = inst.imm
            self.fetch_pc = inst.imm
            return True

        if inst.is_return:
            looks_like_return = (inst.rd == 0 and inst.sources[0] in
                                 (Register.x(1), Register.x(2)))
            target = self.ras.pop() if looks_like_return else None
            if target is None:
                target = self.btb.lookup(inst.addr)
            if target is None:
                target = inst.next_addr  # will almost surely mispredict
            uop.predicted_taken = True
            uop.predicted_target = target
            self.outstanding_branches += 1
            self.fetch_pc = target
            return target != inst.next_addr

        self.fetch_pc = inst.next_addr
        return False

    # -- trace emission -------------------------------------------------------

    def _emit_row(self) -> None:
        """Append this cycle's row to the open block."""
        committed = self._committed_now
        if committed:
            self.stats.commit_hist[len(committed)] += 1
        row = self._row(committed, self._commit_metas,
                        self._dispatched_now, self._exception_now,
                        self._exception_ordering)
        self._last_row = row
        if not self.observers:
            return
        rows = self._rows
        rows.append(row)
        if len(rows) + self._open.n >= DEFAULT_CHUNK_CYCLES:
            self._close_block(self.cycle + 1)
        elif len(rows) >= _ROW_BATCH:
            self._seal()

    def _row(self, committed: List[int], metas: List[int],
             dispatched: List[int], exception: Optional[int],
             ordering: bool) -> tuple:
        """The commit-stage row of the current state (see
        :meth:`CycleBlock.append_rows`).

        ``heads`` holds the address at the head of every ROB bank,
        oldest first.  No column stores it, but the loop memoizer
        compares whole rows, so a period must repeat every bank's head,
        not only the oldest one.
        """
        rob = self.rob
        if rob:
            head = rob[0]
            flags = _F_HEAD
            opts = [head.inst.addr]
            oldest = head.bank
        else:
            flags = _F_EMPTY
            opts = []
            oldest = 0
        if exception is not None:
            flags |= _F_EXC
            opts.append(exception)
        if ordering:
            flags |= _F_ORD
        if self.fetch_buffer:
            flags |= _F_DISP_PC
            opts.append(self.fetch_buffer[0].inst.addr)
        heads = [uop.inst.addr
                 for uop in islice(rob, self.config.rob_banks)]
        return (flags, oldest, self.fetch_pc, opts, committed, metas,
                dispatched, heads)

    def _seal(self) -> CycleBlock:
        """Columnarize the pending stepped rows into the open block."""
        block = self._open
        block.append_rows(self._rows)
        self._rows = []
        return block

    def _close_block(self, next_cycle: int) -> None:
        """Hand the open block to every observer and open the next one
        at *next_cycle*.

        The next block is open before any observer runs, so an
        exception an observer raises leaves no rows to hand out twice.
        """
        block = self._seal()
        self._open = CycleBlock.open(next_cycle, self.config.rob_banks)
        if block.n:
            for observer in self.observers:
                observer.on_block(block)


_SEQ = attrgetter("seq")

#: Stepped rows columnarized at a time: the open block holds at most
#: this many row tuples (about half a kilobyte each) at once.
_ROW_BATCH = 256


class _ForwardSentinel:
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return self.name


#: Load must wait: a conflicting older store has no data yet.
_FORWARD_WAIT = _ForwardSentinel("FORWARD_WAIT")
#: No conflicting older store: go to the cache.
_NO_FORWARD = _ForwardSentinel("NO_FORWARD")
