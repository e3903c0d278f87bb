"""The Oracle profiler: the golden reference (Section 2.2).

Oracle attributes *every* clock cycle to the instruction(s) whose latency
the processor exposes in that cycle, using the four commit-stage states of
Figure 3:

* **Computing** -- one or more instructions commit: attribute ``1/n``
  cycles to each of the ``n`` committing instructions.
* **Stalled** -- the ROB is non-empty but nothing commits: attribute the
  cycle to the instruction at the head of the ROB.
* **Flushed** -- the ROB is empty because of misspeculation or an
  exception: attribute the cycle to the instruction that emptied the ROB
  (mispredicted branch, flushing CSR, or excepting instruction).
* **Drained** -- the ROB is empty because the front-end is not supplying
  instructions: attribute the cycle to the first instruction that enters
  the ROB after the stall (resolved retroactively).

Attribution is exact.  Oracle counts in integer *units*, ``UNITS`` per
cycle; ``UNITS`` is lcm(1..15) and a trace record holds at most 15
commits, so each of ``n`` co-committing instructions gets exactly
``UNITS // n`` and a run of ``count`` identical cycles is one add of
``count * UNITS``.  Counts therefore do not depend on the order in which
cycles, runs or blocks arrive.  Floats appear only in
:class:`OracleReport`, each the correctly rounded quotient of its count.

Besides the full per-instruction time profile and per-category cycle
stacks (Figure 7/13), Oracle can *watch* sampling schedules: for each
sample point it records both the golden attribution of the sampled cycle
and the golden attribution of the whole interval the sample represents
(the cycles since the previous sample).  The Section 4 error metric
compares a profiler's sampled profile against Oracle's full profile; the
per-interval attributions serve the stricter per-sample diagnostic,
:func:`~repro.analysis.error.per_sample_error`.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

from ..cpu.trace import CycleRecord, TraceObserver
from ..fastpath.block import _F_DISP_PC, _F_EXC, _F_HEAD, _F_ORD
from ..isa.program import Program
from .samples import Attribution, Category, FlushKind, stall_category
from .sampling import SampleSchedule

#: One cycle in attribution units: lcm(1..15), so every commit count a
#: trace record can hold divides it.
UNITS = 360360
#: The most commits one trace record can hold (its 4-bit wire count).
MAX_COMMITS = 15

#: flags byte -> number of optional u64s per record (wire order).
_WIRE_NOPT = tuple(bin(f & (_F_HEAD | _F_EXC | _F_DISP_PC)).count("1")
                   for f in range(256))

#: Key identifying a sampling schedule: (period, mode, seed).
ScheduleKey = Tuple[int, str, int]

#: OIR flush kinds, coded like the ``KIND_*`` chunk-carry values of
#: ``repro.cpu.tracefile`` (mirrored); code 0 means no flush reason.
_FLUSH_KINDS = (None, FlushKind.MISPREDICT, FlushKind.CSR,
                FlushKind.EXCEPTION, FlushKind.ORDERING)
_KIND_MISPREDICT, _KIND_CSR, _KIND_EXCEPTION, _KIND_ORDERING = 1, 2, 3, 4
#: Commit meta byte ``>> 6`` (mispredicted | flushes << 1) -> OIR kind.
_META_KIND = (0, _KIND_MISPREDICT, _KIND_CSR, _KIND_MISPREDICT)

#: Unit counts are keyed ``addr << 6 | tag`` with ``tag = category << 3
#: | flush kind``.  EXECUTION is category 0, so a commit's key is
#: ``addr << 6``.
_CATEGORIES = tuple(Category)
_CAT_CODE = {category: code for code, category in enumerate(_CATEGORIES)}
_FRONTEND = _CAT_CODE[Category.FRONTEND] << 3
_MISPREDICT = _CAT_CODE[Category.MISPREDICT] << 3
_MISC_FLUSH = _CAT_CODE[Category.MISC_FLUSH] << 3
#: OIR kind -> tag of the flushed cycles it explains.
_FLUSH_TAG = (None, _MISPREDICT | _KIND_MISPREDICT, _MISC_FLUSH | _KIND_CSR,
              _MISC_FLUSH | _KIND_EXCEPTION, _MISC_FLUSH | _KIND_ORDERING)


def schedule_key(schedule: SampleSchedule) -> ScheduleKey:
    return (schedule.period, schedule.mode, schedule.seed)


class OracleReport:
    """Everything Oracle learned about a run."""

    def __init__(self):
        #: addr -> attributed cycles.
        self.profile: Dict[int, float] = {}
        #: (addr, category) -> attributed cycles.
        self.categorized: Dict[Tuple[int, Category], float] = {}
        #: category -> total cycles.
        self.category_totals: Dict[Category, float] = {}
        #: fine-grained flush breakdown (paper: "more fine-grained
        #: categories"): FlushKind -> attributed cycles.
        self.flush_breakdown: Dict[FlushKind, float] = {}
        #: sample cycle -> golden attribution of that exact cycle.
        self.watched: Dict[int, Tuple[Attribution, Category]] = {}
        #: schedule key -> sample cycle -> golden interval attribution.
        self.intervals: Dict[ScheduleKey, Dict[int, Dict[int, float]]] = {}
        self.total_cycles = 0

    def normalized_profile(self) -> Dict[int, float]:
        """Profile as fraction of total attributed time."""
        total = sum(self.profile.values())
        if not total:
            return {}
        return {addr: t / total for addr, t in self.profile.items()}


class _Watch:
    """A watched schedule: its open interval and the closed ones."""

    __slots__ = ("schedule", "next", "current", "intervals")

    def __init__(self, schedule: SampleSchedule):
        self.schedule = schedule
        #: The schedule's next sample point.
        self.next = schedule.next_sample
        #: addr -> units since the previous sample point.
        self.current: Dict[int, int] = {}
        #: sample cycle -> (addr -> units within the interval).
        self.intervals: Dict[int, Dict[int, int]] = {}

    def seek(self, cycle: int) -> None:
        """Skip, without closing, every sample point before *cycle*."""
        self.schedule.fast_forward(cycle)
        self.next = self.schedule.next_sample

    def close(self) -> None:
        """End the open interval at the sample point ``next``."""
        self.intervals[self.next] = self.current
        self.current = {}
        self.seek(self.next + 1)


class OracleProfiler(TraceObserver):
    """Cycle-exact time-proportional attribution over the commit trace.

    Attribution follows the trace in cycle order (front-end drains are
    held back until the drain resolves, but nothing can be attributed in
    between), so each watched schedule meets its sample points in order.
    The report is filled once, by :meth:`on_finish`.
    """

    def __init__(self, program: Program,
                 watch_schedules: Optional[List[SampleSchedule]] = None):
        self.program = program
        self.report = OracleReport()
        #: ``addr << 6 | tag`` -> attributed units.
        self._units: Dict[int, int] = {}
        self._watches = [_Watch(schedule.clone())
                         for schedule in watch_schedules or ()]
        self._watched: Dict[int, Tuple[Attribution, Category]] = {}
        # OIR mirror: address and flush kind of the most recent
        # committing or excepting instruction.
        self._oir_addr: Optional[int] = None
        self._oir_kind = 0
        # [start, count] runs of cycles waiting for the end of a
        # front-end drain.
        self._pending: List[List[int]] = []
        # addr -> tag of a head-of-ROB stall on it.
        self._stall_tags: Dict[int, int] = {}

    # -- trace consumption ----------------------------------------------------

    def on_cycle(self, record: CycleRecord) -> None:
        cycle = record.cycle
        # A drain ends when the first instruction enters the ROB.
        if self._pending and record.dispatched:
            self._resolve_drain(record.dispatched[0])

        if record.exception is not None:
            # The core is about to trigger an exception: the empty-ROB
            # cycles that follow belong to the excepting instruction.
            self._oir_addr = record.exception
            self._oir_kind = (_KIND_ORDERING if record.exception_is_ordering
                              else _KIND_EXCEPTION)
            self._credit(cycle, 1, record.exception,
                         _FLUSH_TAG[self._oir_kind])
            return

        if record.committed:
            self._commit(cycle, [c.addr for c in record.committed])
            youngest = record.committed[-1]
            self._oir_addr = youngest.addr
            self._oir_kind = (_KIND_MISPREDICT if youngest.mispredicted
                              else _KIND_CSR if youngest.flushes else 0)
            return

        if not record.rob_empty:
            self._credit(cycle, 1, record.rob_head,
                         self._stall_tag(record.rob_head))
            return
        self._empty(cycle, 1)

    def on_block(self, block) -> None:
        """Vectorized columnar attribution.

        Commit records are attributed inline.  Every other record starts
        a *run*: a maximal span of commit-less, exception-free records
        with a uniform empty bit, located by C-speed ``find`` scans over
        the flag masks and one ``bisect`` over the commit prefix sums,
        then attributed with a single :meth:`_credit`.  A run is also
        cut at the next dispatching record whenever that dispatch would
        resolve a pending front-end drain, so cycles are attributed in
        the same order as by :meth:`on_cycle`.
        """
        start = block.start_cycle
        n = block.n
        cb = block.commit_base
        ca = block.commit_addr
        cm = block.commit_meta
        db = block.disp_base
        da = block.disp_addr
        flags_b = block.flags_bytes
        exc_mask = block.exc_mask
        rob_empty = block.rob_empty
        opt_vals = block.opt_vals
        opt_base = block.opt_base
        units = self._units
        get = units.get
        watches = self._watches
        pending = self._pending
        credit = self._credit
        stall_tag = self._stall_tag
        oir_addr = self._oir_addr
        oir_kind = self._oir_kind
        i = 0
        while i < n:
            if pending and db[i + 1] > db[i]:
                self._resolve_drain(da[db[i]])
            if exc_mask[i]:
                f = flags_b[i]
                oir_addr = opt_vals[opt_base[i] + ((f >> 4) & 1)]
                oir_kind = (_KIND_ORDERING if f & _F_ORD
                            else _KIND_EXCEPTION)
                credit(start + i, 1, oir_addr, _FLUSH_TAG[oir_kind])
                i += 1
                continue
            lo, hi = cb[i], cb[i + 1]
            if hi > lo:
                # :meth:`_commit`, inlined over the commit columns.
                if hi - lo == 1:
                    share = UNITS
                    key = ca[lo] << 6
                    units[key] = get(key, 0) + UNITS
                else:
                    share = _share(start + i, hi - lo)
                    for k in range(lo, hi):
                        key = ca[k] << 6
                        units[key] = get(key, 0) + share
                for watch in watches:
                    current = watch.current
                    for k in range(lo, hi):
                        addr = ca[k]
                        current[addr] = current.get(addr, 0) + share
                    if watch.next <= start + i:
                        self._sample(watch, start + i,
                                     [(ca[k], share / UNITS)
                                      for k in range(lo, hi)],
                                     Category.EXECUTION)
                oir_addr = ca[hi - 1]
                oir_kind = _META_KIND[cm[hi - 1] >> 6]
                i += 1
                continue
            # Record i commits nothing and has no exception: find the
            # end of the maximal run that classifies like it.  The OIR
            # mirror cannot move inside such a run.
            empty = rob_empty[i]
            t = exc_mask.find(1, i + 1)
            if t < 0:
                t = n
            flip = rob_empty.find(0 if empty else 1, i + 1, t)
            if flip >= 0:
                t = flip
            q = bisect_right(cb, lo, i + 1, t + 1)
            if q <= t:
                t = q - 1  # record q-1 is the first committing record
            if pending or (empty and not oir_kind):
                # A drain is (or is about to be) pending: its resolving
                # dispatch must not be swallowed by the run.
                d = bisect_right(db, db[i + 1], i + 2, t + 1)
                if d <= t:
                    t = d - 1
            run = t - i
            if empty:
                if oir_kind:
                    credit(start + i, run, oir_addr, _FLUSH_TAG[oir_kind])
                else:
                    self._park(start + i, run)
                i = t
                continue
            # Head-of-ROB stall run.  With uniform flags every head sits
            # at the same stride, so one slice compare proves them equal.
            f = flags_b[i]
            if f & _F_HEAD and (run == 1
                                or flags_b.count(f, i, t) == run):
                step = _WIRE_NOPT[f]
                base = opt_base[i]
                heads = opt_vals[base:base + step * run:step]
                if run == 1 or heads[:run - 1] == heads[1:]:
                    credit(start + i, run, heads[0], stall_tag(heads[0]))
                    i = t
                    continue
            # Mixed flags or heads: one credit per stretch of records
            # naming the same head.
            while i < t:
                head = block.rob_head_at(i)
                j = i + 1
                while j < t and block.rob_head_at(j) == head:
                    j += 1
                credit(start + i, j - i, head, stall_tag(head))
                i = j
        self._oir_addr = oir_addr
        self._oir_kind = oir_kind

    def on_finish(self, final_cycle: int) -> None:
        # Any unresolved drain at the end of the run has no successor
        # instruction; those cycles are dropped (they cannot occur after
        # the final halt commits, so this only covers truncated runs).
        self._pending.clear()
        _fill_report(self.report, self._units, self._watched,
                     {schedule_key(watch.schedule): watch.intervals
                      for watch in self._watches})
        self.report.total_cycles = final_cycle

    # -- internals ------------------------------------------------------------

    def _commit(self, cycle: int, addrs: List[int]) -> None:
        """Attribute a commit cycle: ``UNITS // n`` to each of its *n*
        addresses.  :meth:`on_block` inlines this."""
        share = _share(cycle, len(addrs))
        units = self._units
        for addr in addrs:
            key = addr << 6
            units[key] = units.get(key, 0) + share
        for watch in self._watches:
            current = watch.current
            for addr in addrs:
                current[addr] = current.get(addr, 0) + share
            if watch.next <= cycle:
                self._sample(watch, cycle,
                             [(addr, share / UNITS) for addr in addrs],
                             Category.EXECUTION)

    def _credit(self, cycle: int, count: int, addr: int, tag: int) -> None:
        """Attribute the *count* whole cycles from *cycle* on to
        *addr*; each watch splits them at its sample points."""
        key = addr << 6 | tag
        units = self._units
        units[key] = units.get(key, 0) + count * UNITS
        end = cycle + count
        for watch in self._watches:
            first = cycle
            if watch.next < first:
                watch.seek(first)
            while watch.next < end:
                sample = watch.next
                current = watch.current
                current[addr] = (current.get(addr, 0)
                                 + (sample + 1 - first) * UNITS)
                self._watched[sample] = ([(addr, 1.0)],
                                         _CATEGORIES[tag >> 3])
                watch.close()
                first = sample + 1
            if first < end:
                current = watch.current
                current[addr] = current.get(addr, 0) + (end - first) * UNITS

    def _sample(self, watch: _Watch, cycle: int, weights: Attribution,
                category: Category) -> None:
        """Close *watch*'s interval if *cycle*, just attributed, is its
        sample point."""
        if watch.next < cycle:
            watch.seek(cycle)
        if watch.next == cycle:
            self._watched[cycle] = (weights, category)
            watch.close()

    def _empty(self, cycle: int, count: int) -> None:
        """Empty-ROB cycles: flushed if the OIR carries a flush reason,
        else a front-end drain resolved at the next dispatch."""
        if self._oir_kind:
            self._credit(cycle, count, self._oir_addr,
                         _FLUSH_TAG[self._oir_kind])
        else:
            self._park(cycle, count)

    def _park(self, cycle: int, count: int) -> None:
        pending = self._pending
        if pending and pending[-1][0] + pending[-1][1] == cycle:
            pending[-1][1] += count
        else:
            pending.append([cycle, count])

    def _resolve_drain(self, addr: int) -> None:
        # Cleared in place: the block loop holds an alias.
        for cycle, count in self._pending:
            self._credit(cycle, count, addr, _FRONTEND)
        self._pending.clear()

    def _stall_tag(self, head: int) -> int:
        tag = self._stall_tags.get(head)
        if tag is None:
            tag = _CAT_CODE[stall_category(self.program, head)] << 3
            self._stall_tags[head] = tag
        return tag


def _share(cycle: int, commits: int) -> int:
    """Units each of *commits* co-committing instructions gets."""
    if commits > MAX_COMMITS:
        raise ValueError(
            f"cycle {cycle} commits {commits} instructions; a trace "
            f"record holds at most {MAX_COMMITS}")
    return UNITS // commits


def _to_cycles(counts: Dict) -> Dict:
    """Convert unit counts to cycles, in place, correctly rounded."""
    for key, count in counts.items():
        counts[key] = count / UNITS
    return counts


def _fill_report(report: OracleReport, units: Dict[int, int],
                 watched: Dict[int, Tuple[Attribution, Category]],
                 intervals: Dict[ScheduleKey, Dict[int, Dict[int, int]]]
                 ) -> None:
    """Fill *report*'s tables from unit counts.  The interval counts are
    converted in place, so no second copy of them is ever alive."""
    profile: Dict[int, int] = {}
    categorized: Dict[Tuple[int, Category], int] = {}
    totals: Dict[Category, int] = {}
    breakdown: Dict[FlushKind, int] = {}
    for key, count in units.items():
        addr = key >> 6
        category = _CATEGORIES[key >> 3 & 7]
        profile[addr] = profile.get(addr, 0) + count
        pair = (addr, category)
        categorized[pair] = categorized.get(pair, 0) + count
        totals[category] = totals.get(category, 0) + count
        kind = _FLUSH_KINDS[key & 7]
        if kind is not None:
            breakdown[kind] = breakdown.get(kind, 0) + count
    report.profile = _to_cycles(profile)
    report.categorized = _to_cycles(categorized)
    report.category_totals = _to_cycles(totals)
    report.flush_breakdown = _to_cycles(breakdown)
    report.watched = watched
    for per_cycle in intervals.values():
        for counts in per_cycle.values():
            _to_cycles(counts)
    report.intervals = intervals
