"""Steady-state loop memoization for the simulator cold path.

The event-driven stall fast-forward (:meth:`Core._quiet_until`) only
wins when the pipeline is provably idle, which leaves compute-bound
workloads -- tight loops that commit every cycle -- at step-simulation
speed.  This module closes that gap: when the *full* pipeline state
becomes periodic with period ``P`` cycles, whole loop iterations are
skipped at once while keeping the emitted trace, the profiles and the
core statistics bit-identical to single stepping.

The scheme has four phases:

1. **Detection.**  A rolling ring of the rows of the last stepped
   cycles (cycle-free tuples, see :meth:`~repro.cpu.core.Core._row`)
   is scanned (throttled with exponential backoff) for the smallest
   period ``P`` such that the last two ``P``-cycle windows are
   identical row by row.

2. **Confirmation.**  A full microarchitectural fingerprint ``F1`` is
   taken -- every in-flight uop with *relative* timing fields but
   *absolute* effective addresses, queue occupancy shapes, the rename
   map, fetch state, and the complete branch-predictor/BTB/RAS
   contents -- then ``P`` further cycles are stepped, each checked
   against the template, and a second fingerprint ``F2`` is taken.
   ``F1 == F2`` proves the machine is on a limit cycle: the predictor
   and front end are at a fixpoint, and because the confirm window was
   hits-only (gated below), the cache/TLB recency state is too.

3. **Projection.**  The committed-instruction stream of one period is
   re-executed *functionally* (program order, via
   :func:`~repro.isa.semantics.evaluate`) from the architectural state
   at the end of confirmation, iterating forward iteration by
   iteration.  Every control-flow decision and every memory effective
   address is guarded against the template; the first mismatch is the
   data-dependent divergence point (e.g. the loop-closing branch
   finally falling through).  The number of safely skippable
   iterations ``K`` is then the divergence point minus a safety
   margin, further capped so the skip never crosses the next sampling
   interrupt or the ``max_cycles`` budget.

4. **Skip.**  The core's open block closes, and the ``K`` iterations
   reach observers after it as one
   :class:`~repro.fastpath.block.CycleBlock` (the template period
   columnarized once and repeated ``K`` times) through
   :meth:`~repro.cpu.trace.TraceObserver.on_block`, the architectural
   state (registers, memory) jumps to the projected values, the frozen
   in-flight uops are re-interpreted as their ``K``-iterations-later
   instances (results and future-relative timing fields patched), and
   all statistics counters advance by ``K`` times the measured
   per-period delta.

Soundness rests on counter gating at confirmation: zero exceptions,
flushes, cache/TLB misses, DRAM accesses and page walks in the window,
no live MSHRs, no draining stores, and no unissued uop reading a
committed producer.  Branch mispredicts *are* allowed as long as they
are part of the limit cycle -- a loop whose predictor mispredicts the
same internal branch every N iterations repeats its squash/refetch
machinery exactly once per period, which the row-by-row
confirmation and the fingerprint both verify; the mispredict counters
then advance by a fixed per-period delta like ``committed`` does.
Anything time-dependent that survives those gates is covered by the
fingerprint.  ``--paranoid`` replaces
the skip with single-stepping every cycle, checking each row
against the template and the final architectural state against the
projection, raising :class:`~repro.cpu.core.SimFastError` on any
divergence.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from operator import itemgetter
from typing import Deque, List, Optional

from ..fastpath.block import (_F_EXC, _M_FLUSHES, _ROW_COMMITS,
                              _ROW_FLAGS, _ROW_METAS, CycleBlock)
from ..isa.opcodes import Kind
from ..isa.semantics import evaluate
from .core import SimFastError
from .uop import _NOT_DONE

#: Longest period (in cycles) the detector will consider.
MAX_PERIOD = 512
#: Detection ring size: two full periods plus slack.
RING_SIZE = 2 * MAX_PERIOD + 8
#: Attempt throttle bounds (cycles between detection attempts).
MIN_BACKOFF = 64
MAX_BACKOFF = 8192
#: When a period *was* found but the instant was ineligible (wrong-path
#: uops in flight around a periodic mispredict, a draining store, ...),
#: the state is periodic and a clean instant exists somewhere in the
#: cycle: retry on the very next cycle -- each stepped cycle shifts the
#: phase by one -- until every phase of the period has been tried once
#: (bounded below), then fall back to exponential backoff.
MAX_PHASE_RETRIES = 128
#: Hard bound on functionally projected positions per attempt.
PROJECT_CAP = 1 << 20


def _rel(value: int, now: int) -> int:
    """Clamp a cycle field to skip-invariant form: past -> 0, the
    not-done sentinel preserved, future -> offset from *now*."""
    if value <= now:
        return 0
    if value >= _NOT_DONE:
        return -1
    return value - now


def _val_eq(a, b) -> bool:
    """Equality that treats NaN as equal to NaN (exact otherwise)."""
    return a == b or (a != a and b != b)


class LoopMemoizer:
    """Per-run steady-state detector and iteration skipper.

    Driven by :meth:`Core.run` in ``sim="fast"`` mode: ``after_step``
    is called after every single-stepped cycle, ``note_break`` whenever
    the stall fast-forward (or any other discontinuity) makes the ring
    non-contiguous.
    """

    def __init__(self, core, max_cycles: int, paranoid: bool = False):
        self.core = core
        self.max_cycles = max_cycles
        self.paranoid = paranoid
        self._ring: Deque[tuple] = deque(maxlen=RING_SIZE)
        self._next_attempt = 0
        self._backoff = MIN_BACKOFF
        #: Smallest period worth trying: row-level periodicity can
        #: be a divisor of true state-level periodicity (e.g. a loop
        #: whose rows repeat every iteration but whose predictor
        #: phase repeats every four), so fingerprint failures ratchet
        #: this up until the full period is found.
        self._min_period = 1
        self._phase_retries = 0
        self._confirming = False
        self._expected: List[tuple] = []
        self._idx = 0
        self._f1 = None
        self._commits: List[tuple] = []
        self._stats0: Optional[tuple] = None
        self._hier0: Optional[list] = None

    # -- driver hooks ---------------------------------------------------------

    def note_break(self) -> None:
        """The cycle stream is discontinuous (stall fast-forward ran)."""
        self._reset_region()

    def _reset_region(self) -> None:
        self._ring.clear()
        self._min_period = 1
        self._phase_retries = 0
        self._backoff = MIN_BACKOFF  # new region: fresh chances
        if self._confirming:
            self._abort_confirm()

    def after_step(self) -> None:
        """Feed the row just stepped; may detect, confirm or skip."""
        row = self.core._last_row
        if row[_ROW_FLAGS] & _F_EXC:
            self._reset_region()
            return
        self._ring.append(row)
        if self._confirming:
            self._confirm_step(row)
        elif self.core.cycle >= self._next_attempt:
            self._attempt()

    # -- phase 1: detection ---------------------------------------------------

    def _fail(self, ratchet_period: int = 0,
              phase_period: int = 0) -> None:
        if self._confirming:
            self._abort_confirm()
        if ratchet_period:
            self._min_period = ratchet_period + 1
        if phase_period and self._phase_retries < min(
                phase_period + 8, MAX_PHASE_RETRIES):
            # A period exists; only the sampled instant was ineligible.
            # Retry next cycle -- stepping shifts the phase by one, so
            # this sweeps every phase of the period for a clean instant
            # at the cost of one ring scan per cycle, far cheaper than
            # the simulation cycles a missed skip would step.
            self._phase_retries += 1
            self._next_attempt = self.core.cycle + 1
            return
        self._phase_retries = 0
        self._next_attempt = self.core.cycle + self._backoff
        self._backoff = min(self._backoff * 2, MAX_BACKOFF)

    def _abort_confirm(self) -> None:
        self._confirming = False
        self.core._commit_probe = None
        self._expected = []
        self._commits = []
        self._f1 = None

    def _attempt(self) -> None:
        seq = list(self._ring)
        period = self._find_period(seq)
        if period is None:
            self._fail()
            return
        expected = seq[-period:]
        # One meta byte per commit.  Periodic mispredicted commits are
        # part of the limit cycle and fine; commit-time flushes redirect
        # into the kernel and are not (the flush flag is a meta byte's
        # top bit, so the largest meta carries it if any does).
        metas = list(chain.from_iterable(
            map(itemgetter(_ROW_METAS), expected)))
        if not metas or max(metas) & _M_FLUSHES:
            self._fail()
            return
        fingerprint = self._fingerprint()
        if fingerprint is None:
            self._fail(phase_period=period)
            return
        # Enter confirmation: step one more full period, row by row,
        # with a commit probe capturing architectural effects.
        self._confirming = True
        self._expected = expected
        self._idx = 0
        self._f1 = fingerprint
        self._commits = []
        self.core._commit_probe = self._probe_commit
        self._stats0 = self._stats_tuple()
        self._hier0 = self._hier_counters()

    def _find_period(self, seq: List[tuple]) -> Optional[int]:
        n = len(seq)
        limit = min(MAX_PERIOD, (n - 1) // 2)
        last = seq[-1]
        for p in range(max(self._min_period, 1), limit + 1):
            if seq[-1 - p] == last and seq[-p:] == seq[-2 * p:-p]:
                return p
        return None

    # -- phase 2: confirmation ------------------------------------------------

    def _probe_commit(self, uop) -> None:
        self._commits.append((uop.inst, uop.result, uop.eff_addr,
                              uop.store_value, uop.actual_taken))

    def _confirm_step(self, row: tuple) -> None:
        if row != self._expected[self._idx]:
            self._fail()
            return
        self._idx += 1
        if self._idx == len(self._expected):
            self._finalize()

    def _stats_tuple(self) -> tuple:
        st = self.core.stats
        return (st.committed, st.fetched, st.branch_mispredicts,
                st.csr_flushes, st.exceptions, st.ordering_flushes,
                st.sampling_interrupts, tuple(st.commit_hist))

    def _hier_counters(self) -> list:
        """Snapshot every memory-side counter as (kind, obj, attr, val).

        ``zero`` counters must not move across the confirm window (any
        delta means time-dependent machinery was active and the window
        is not skippable); ``bump`` counters advance by a fixed amount
        per period and are multiplied out on a skip.
        """
        h = self.core.hierarchy
        out = []
        for cache in (h.l1i, h.l1d, h.l2, h.llc):
            s = cache.stats
            out.append(("bump", s, "accesses", s.accesses))
            out.append(("bump", s, "hits", s.hits))
            out.append(("zero", s, "misses", s.misses))
            out.append(("zero", s, "coalesced", s.coalesced))
            out.append(("zero", s, "mshr_stall_cycles",
                        s.mshr_stall_cycles))
            out.append(("zero", s, "prefetches", s.prefetches))
        out.append(("zero", h.dram, "accesses", h.dram.accesses))
        for tlbs in (h.itlb, h.dtlb):
            out.append(("bump", tlbs.l1, "hits", tlbs.l1.hits))
            out.append(("zero", tlbs.l1, "misses", tlbs.l1.misses))
            out.append(("zero", tlbs.l2, "hits", tlbs.l2.hits))
            out.append(("zero", tlbs.l2, "misses", tlbs.l2.misses))
        out.append(("zero", h.walker, "walks", h.walker.walks))
        predictor = self.core.predictor
        out.append(("bump", predictor, "lookups", predictor.lookups))
        out.append(("bump", predictor, "mispredicts",
                    predictor.mispredicts))
        return out

    def _fingerprint(self) -> Optional[tuple]:
        """The complete skip-relevant machine state, or ``None`` if the
        current state is ineligible for memoization.

        Architectural *values* (registers, memory, results) are
        deliberately excluded -- they advance every iteration and are
        handled by projection; everything else that can influence
        future timing or control must be here.
        """
        core = self.core
        if (core._interrupt_pending or core._in_trap or core.halted
                or core.serialize_uop is not None or core._store_drains):
            return None
        rob = core.rob
        if not rob:
            return None
        for uop in core.store_queue:
            if uop.commit_cycle >= 0:
                return None  # committed store awaiting drain
        inflight = list(rob) + list(core.fetch_buffer)
        now = core.cycle
        pos = {}
        items: List[tuple] = []
        for i, uop in enumerate(inflight):
            pos[id(uop)] = i
        for uop in inflight:
            if (uop.squashed or uop.mispredicted or uop.order_violation
                    or uop.fault_vpn is not None
                    or uop.inst.kind is Kind.ATOMIC):
                return None
            if not uop.executed:
                for producer in uop.src_uops:
                    if producer is not None and \
                            producer.commit_cycle >= 0:
                        # Would read a committed value the skip cannot
                        # re-interpret; rare outside pipeline warm-up.
                        return None
            prediction = uop.prediction
            items.append((
                uop.inst.addr, uop.bank, uop.executed, uop.issued,
                _rel(uop.fetch_cycle, now), _rel(uop.visible_cycle, now),
                _rel(uop.dispatch_cycle, now),
                _rel(uop.issue_cycle, now), _rel(uop.done_cycle, now),
                uop.predicted_taken, uop.predicted_target,
                uop.actual_taken, uop.actual_target, uop.eff_addr,
                None if prediction is None else
                (prediction.taken, prediction.provider,
                 prediction.history),
                tuple(-1 if p is None else pos.get(id(p), -2)
                      for p in uop.src_uops),
            ))
        for queue in (core.int_iq, core.mem_iq, core.fp_iq,
                      core.load_queue, core.store_queue,
                      core._resolve_queue):
            shape = []
            for uop in queue:
                p = pos.get(id(uop))
                if p is None:
                    return None
                shape.append(p)
            items.append(tuple(shape))
        producers = []
        for reg, uop in core.producers.items():
            p = pos.get(id(uop))
            if p is None:
                return None
            producers.append((reg, p))
        producers.sort()
        predictor = core.predictor
        tables = tuple(
            (tuple(t.tags), tuple(t.counters), tuple(t.useful),
             tuple(t.valid)) for t in predictor.tables)
        return (
            len(rob), len(core.fetch_buffer), tuple(items),
            tuple(producers), core.fetch_pc,
            _rel(core.fetch_ready_cycle, now), core._last_fetch_block,
            core._next_bank, core.outstanding_branches, core.fflags,
            tuple(predictor.base), tables, predictor.history,
            tuple(sorted(core.btb._table.items())),
            tuple(core.ras._stack),
        )

    # -- phase 3+4: finalize (gate, project, skip) ----------------------------

    def _finalize(self) -> None:
        core = self.core
        core._commit_probe = None
        self._confirming = False
        period = len(self._expected)

        fingerprint = self._fingerprint()
        if fingerprint is None or fingerprint != self._f1:
            self._fail(ratchet_period=period)
            return

        stats1 = self._stats_tuple()
        stats0 = self._stats0
        # committed/fetched/mispredicts advance per period; every
        # flush-like counter must not move at all.
        if any(stats1[i] != stats0[i] for i in range(3, 7)):
            self._fail()
            return
        d_committed = stats1[0] - stats0[0]
        d_fetched = stats1[1] - stats0[1]
        d_mispredicts = stats1[2] - stats0[2]
        d_hist = [b - a for a, b in zip(stats0[7], stats1[7])]

        bumps = []
        for kind, obj, attr, before in self._hier0:
            delta = getattr(obj, attr) - before
            if kind == "zero":
                if delta:
                    self._fail()
                    return
            elif delta:
                bumps.append((obj, attr, delta))
        now = core.cycle
        hierarchy = core.hierarchy
        for cache in (hierarchy.l1i, hierarchy.l1d, hierarchy.l2,
                      hierarchy.llc):
            for mshr in cache._mshrs:
                if mshr.ready > now:
                    self._fail()
                    return
        if hierarchy.dram._next_free > now:
            self._fail()
            return

        commits = self._commits
        if len(commits) != d_committed or d_committed == 0:
            self._fail()
            return
        if [c[0].addr for c in commits] != [
                addr for row in self._expected
                for addr in row[_ROW_COMMITS]]:
            self._fail()
            return

        allowed_k = self._allowed_k(period, len(commits))
        if allowed_k < 1:
            self._fail()
            return
        inflight = list(core.rob) + list(core.fetch_buffer)
        plan = self._project(commits, inflight, allowed_k)
        if plan is None or plan["k"] < 1:
            self._fail(phase_period=period)
            return

        if self.paranoid:
            self._paranoid_skip(plan, period, d_committed, d_fetched,
                                d_mispredicts, d_hist)
        else:
            self._apply_skip(plan, period, inflight, d_committed,
                             d_fetched, d_mispredicts, d_hist, bumps)

        # Re-arm immediately: the machine is still (briefly) periodic,
        # so seed the ring with the last two skipped periods and retry
        # without backoff.
        self._ring.clear()
        self._ring.extend(self._expected * 2)
        self._backoff = MIN_BACKOFF
        self._next_attempt = core.cycle
        self._min_period = period
        self._phase_retries = 0
        self._abort_confirm()

    def _allowed_k(self, period: int, length: int) -> int:
        core = self.core
        now = core.cycle
        k = (self.max_cycles - now) // period
        schedule = core.sampling_schedule
        if schedule is not None:
            k = min(k, (schedule.next_sample - now) // period)
        k = min(k, (PROJECT_CAP - len(core.rob)
                    - len(core.fetch_buffer)) // length)
        return k

    # -- functional projection ------------------------------------------------

    def _project(self, commits: List[tuple], inflight: list,
                 allowed_k: int) -> Optional[dict]:
        """Re-execute the periodic commit stream functionally.

        Returns the skip plan (iteration count ``k``, the register
        file and memory overlay after ``k`` periods, and the per-
        position value window for patching in-flight uops) or ``None``
        when the window cannot be skipped safely.
        """
        core = self.core
        length = len(commits)
        n_inflight = len(inflight)
        insts = [c[0] for c in commits]
        addrs = [inst.addr for inst in insts]
        exp_taken = [c[4] for c in commits]
        exp_eff = [c[2] for c in commits]

        exp_succ: List[Optional[int]] = []
        for j, inst in enumerate(insts):
            nxt = addrs[(j + 1) % length]
            if inst.is_halt or inst.kind is Kind.ATOMIC:
                return None
            if inst.is_control:
                exp_succ.append(nxt)
            else:
                if inst.next_addr != nxt:
                    return None
                exp_succ.append(None)
        for i, uop in enumerate(inflight):
            if uop.inst.addr != addrs[i % length]:
                return None

        target = allowed_k * length + n_inflight
        regs = list(core.regs)
        fflags = core.fflags
        mem_get = core.memory.get
        overlay: dict = {}
        undo: Deque[tuple] = deque()
        window = n_inflight + 2 * length + 2
        values: List[Optional[tuple]] = [None] * window
        snapshots: dict = {}
        diverged = None
        j = 0
        while j < target:
            mod = j % length
            if mod == 0:
                snapshots[j] = regs[:]
                snapshots.pop(j - 2 * (window + length), None)
                old = j - window
                while undo and undo[0][0] < old:
                    undo.popleft()
            inst = insts[mod]
            result = evaluate(
                inst,
                tuple(regs[r] if r else 0 for r in inst.sources),
                fflags)
            value = result.value
            store_value = None
            if inst.is_control:
                if result.taken != exp_taken[mod] or \
                        result.target != exp_succ[mod]:
                    diverged = j
                    break
            if inst.is_mem:
                eff = result.eff_addr
                if eff != exp_eff[mod]:
                    diverged = j
                    break
                if inst.is_store:
                    undo.append((j, eff, eff in overlay,
                                 overlay.get(eff)))
                    overlay[eff] = result.store_value
                    store_value = result.store_value
                else:
                    value = overlay[eff] if eff in overlay \
                        else mem_get(eff, 0)
            if j < n_inflight:
                uop = inflight[j]
                if uop.executed and not (
                        _val_eq(uop.result, value)
                        and _val_eq(uop.store_value, store_value)
                        and (not inst.is_mem
                             or uop.eff_addr == exp_eff[mod])):
                    # The functional model disagrees with the machine
                    # about state it can directly see: never skip.
                    if self.paranoid:
                        raise SimFastError(
                            f"memoization projection diverges from "
                            f"in-flight uop at position {j} "
                            f"({inst.op.value}@{inst.addr:#x})")
                    return None
            values[j % window] = (value, store_value)
            rd = inst.rd
            if rd is not None and rd != 0:
                regs[rd] = value
            j += 1

        if diverged is not None:
            k = (diverged - n_inflight) // length - 1
            if k > allowed_k:
                k = allowed_k
        else:
            k = allowed_k
        if k < 1:
            return None
        boundary = k * length
        final_regs = snapshots.get(boundary)
        if final_regs is None:
            return None
        while undo and undo[-1][0] >= boundary:
            _, addr, had, old_value = undo.pop()
            if had:
                overlay[addr] = old_value
            else:
                overlay.pop(addr, None)
        return {"k": k, "boundary": boundary, "regs": final_regs,
                "overlay": overlay, "values": values, "window": window}

    # -- the skip -------------------------------------------------------------

    def _emit(self, period: int, repeats: int) -> None:
        """Close the open block, then hand out the skipped iterations."""
        core = self.core
        now = core.cycle
        core._close_block(now + period * repeats)
        if not core.observers:
            return
        # Confirmation stepped one period up to now; the skipped
        # iterations follow it.
        one = CycleBlock.open(now, core.config.rob_banks)
        one.append_rows(self._expected)
        block = CycleBlock.concat([(one, 0, period)] * repeats)
        for observer in core.observers:
            observer.on_block(block)

    def _apply_skip(self, plan: dict, period: int, inflight: list,
                    d_committed: int, d_fetched: int,
                    d_mispredicts: int, d_hist: List[int],
                    bumps: list) -> None:
        core = self.core
        k = plan["k"]
        skip = k * period
        now = core.cycle

        self._emit(period, k)

        core.regs[:] = plan["regs"]
        core.memory.update(plan["overlay"])

        boundary, values, window = \
            plan["boundary"], plan["values"], plan["window"]
        for i, uop in enumerate(inflight):
            if uop.executed:
                value, store_value = values[(boundary + i) % window]
                uop.result = value
                if uop.inst.is_store:
                    uop.store_value = store_value
            for attr in ("fetch_cycle", "visible_cycle", "dispatch_cycle",
                         "issue_cycle", "done_cycle", "ready_cycle"):
                v = getattr(uop, attr)
                if now < v < _NOT_DONE:
                    setattr(uop, attr, v + skip)
        if core.fetch_ready_cycle > now:
            core.fetch_ready_cycle += skip

        core.cycle = now + skip
        core._last_row = self._expected[-1]

        stats = core.stats
        stats.committed += k * d_committed
        stats.fetched += k * d_fetched
        stats.branch_mispredicts += k * d_mispredicts
        hist = stats.commit_hist
        for i, d in enumerate(d_hist):
            if d:
                hist[i] += k * d
        stats.fast_forwarded += skip
        stats.steady_state_cycles += skip
        stats.steady_state_iterations += k
        for obj, attr, delta in bumps:
            setattr(obj, attr, getattr(obj, attr) + k * delta)

    def _paranoid_skip(self, plan: dict, period: int,
                       d_committed: int, d_fetched: int,
                       d_mispredicts: int, d_hist: List[int]) -> None:
        """Single-step the whole planned skip, checking everything."""
        core = self.core
        k = plan["k"]
        start = core.cycle
        stats0 = self._stats_tuple()
        for repeat in range(1, k + 1):
            for offset, template in enumerate(self._expected):
                expected_cycle = start + (repeat - 1) * period + offset
                core.step()
                if core._last_row != template:
                    raise SimFastError(
                        f"steady-state divergence at cycle "
                        f"{expected_cycle} (iteration {repeat}/{k}): "
                        f"expected {template!r}, stepped to "
                        f"{core._last_row!r}")
        stats1 = self._stats_tuple()
        if (stats1[0] - stats0[0] != k * d_committed
                or stats1[1] - stats0[1] != k * d_fetched
                or stats1[2] - stats0[2] != k * d_mispredicts
                or any(stats1[i] != stats0[i] for i in range(3, 7))
                or any(b - a != k * d for a, b, d in
                       zip(stats0[7], stats1[7], d_hist))):
            raise SimFastError(
                "steady-state skip statistics diverge from the "
                f"per-period delta over {k} iterations")
        for reg, value in enumerate(plan["regs"]):
            if not _val_eq(core.regs[reg], value):
                raise SimFastError(
                    f"steady-state skip register divergence: x{reg} "
                    f"is {core.regs[reg]!r}, projected {value!r}")
        for addr, value in plan["overlay"].items():
            if not _val_eq(core.memory.get(addr, 0), value):
                raise SimFastError(
                    f"steady-state skip memory divergence at "
                    f"{addr:#x}: {core.memory.get(addr, 0)!r} != "
                    f"projected {value!r}")
        stats = core.stats
        stats.fast_forwarded += k * period
        stats.steady_state_cycles += k * period
        stats.steady_state_iterations += k
