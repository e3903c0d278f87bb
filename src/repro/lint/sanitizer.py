"""Commit-trace sanitizer: invariant checks over the CycleRecord stream.

Every profiler in this repo silently assumes the per-cycle commit trace
is well-formed: commits arrive in program order, cycle numbers are
dense, a pipeline flush actually drains the machine, banks rotate
round-robin.  gem5 catches whole bug classes with built-in sanity
checkers; :class:`TraceSanitizer` is the equivalent for our trace --
attach it to a :class:`~repro.cpu.machine.Machine` (or a trace replay)
and it validates every :class:`~repro.cpu.trace.CycleRecord` against
the commit-stage invariants, failing fast with a cycle-numbered report.

Invariants (rule ids used in reports and tests):

* ``S001 monotone-cycle``      -- cycle numbers increase by exactly 1;
* ``S002 commit-width``        -- at most commit-width commits/cycle;
* ``S003 program-order``       -- within a cycle, each committed
  instruction's successor is consistent with its semantics (fall-through
  +4, branch target or fall-through, jump target); committed addresses
  must be in the program text; ``halt`` commits last;
* ``S004 bank-rotation``       -- committed ROB banks rotate round-robin;
* ``S005 flush-drain``         -- a flush-on-commit instruction is the
  last commit of its cycle, leaves the ROB empty, and the next cycle
  commits nothing (the pipeline is drained);
* ``S006 exception-exclusive`` -- an exception cycle commits nothing,
  leaves the ROB empty, and is followed by a drained cycle; the
  ordering-flush flag implies an exception address;
* ``S007 head-consistency``    -- ``rob_head``/``rob_empty``/
  ``head_banks[oldest_bank]`` agree;
* ``S008 flag-consistency``    -- the mispredict flag only on control
  instructions, the flush flag exactly on flush-on-commit opcodes.
"""

from __future__ import annotations

from typing import List, Optional

from ..analysis.report import format_diag
from ..isa.opcodes import Kind
from ..isa.program import Program
from ..cpu.trace import CommittedInst, CycleRecord, TraceObserver
from .diagnostics import Diagnostic, Severity


class TraceInvariantError(RuntimeError):
    """A commit-trace invariant was violated (fail-fast mode)."""

    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.render())
        self.diagnostic = diagnostic


class TraceSanitizer(TraceObserver):
    """Validates the commit-stage trace cycle by cycle.

    Every batch -- a live core's open block of stepped cycles and
    stall runs, a memoized loop period, a replayed chunk -- is checked
    record by record through the default
    :meth:`~repro.cpu.trace.TraceObserver.on_block` fallback, so every
    cycle is checked, not inferred.  Those records carry only the
    oldest bank's head entry, so S007 checks ``rob_empty``,
    ``rob_head`` and ``oldest_bank`` against each other, live and
    replayed alike.  A fault on a live run surfaces when its block
    closes: the core closes the open block before any exception leaves
    :meth:`~repro.cpu.core.Core.run`, so the violation is raised
    first.

    Parameters
    ----------
    program:
        The *booted image* being executed (application plus kernel
        text), enabling the program-aware checks (S003, S008).  ``None``
        restricts the sanitizer to the structural invariants.
    commit_width:
        Maximum commits per cycle; defaults to the bank count.
    banks:
        Number of ROB banks; inferred from the first record if ``None``.
    fail_fast:
        Raise :class:`TraceInvariantError` on the first violation
        (default).  Otherwise violations accumulate in ``violations``.
    """

    def __init__(self, program: Optional[Program] = None,
                 commit_width: Optional[int] = None,
                 banks: Optional[int] = None,
                 fail_fast: bool = True):
        self.program = program
        self.commit_width = commit_width
        self.banks = banks
        self.fail_fast = fail_fast
        self.violations: List[Diagnostic] = []
        self.cycles_checked = 0
        self.commits_checked = 0
        self._last_cycle: Optional[int] = None
        #: A flush or exception last cycle: this cycle must commit nothing.
        self._drain_pending = False
        self._finished = False

    @classmethod
    def for_machine(cls, machine: "object",
                    fail_fast: bool = True) -> "TraceSanitizer":
        """Build a sanitizer matching a Machine's image and config."""
        config = machine.config  # type: ignore[attr-defined]
        return cls(program=machine.image,  # type: ignore[attr-defined]
                   commit_width=config.commit_width,
                   banks=config.rob_banks, fail_fast=fail_fast)

    # -- observer interface ---------------------------------------------------

    def on_cycle(self, record: CycleRecord) -> None:
        if self.banks is None:
            self.banks = len(record.head_banks) or None
        if self.commit_width is None:
            self.commit_width = self.banks

        self._check_monotone(record)
        self._check_width(record)
        self._check_drain(record)
        self._check_exception(record)
        self._check_head(record)
        self._check_commits(record)

        self._drain_pending = (record.exception is not None
                               or any(c.flushes for c in record.committed))
        self._last_cycle = record.cycle
        self.cycles_checked += 1
        self.commits_checked += len(record.committed)

    def on_finish(self, final_cycle: int) -> None:
        self._finished = True

    # -- pooled runs: results cross processes as snapshots --------------------

    def snapshot(self) -> dict:
        """Picklable capture of this sanitizer's checking results."""
        return {
            "cycles_checked": self.cycles_checked,
            "commits_checked": self.commits_checked,
            "violations": list(self.violations),
        }

    def absorb(self, snapshots) -> None:
        """Fold ordered snapshots (a pool worker's payload) into this
        sanitizer."""
        for snap in snapshots:
            self.cycles_checked += snap["cycles_checked"]
            self.commits_checked += snap["commits_checked"]
            self.violations.extend(snap["violations"])

    # -- individual invariants ------------------------------------------------

    def _check_monotone(self, record: CycleRecord) -> None:
        if self._last_cycle is None:
            return
        if record.cycle != self._last_cycle + 1:
            self._report(
                "S001", record.cycle,
                f"cycle numbers must be dense: {self._last_cycle} was "
                f"followed by {record.cycle}")

    def _check_width(self, record: CycleRecord) -> None:
        width = self.commit_width
        if width is not None and len(record.committed) > width:
            self._report(
                "S002", record.cycle,
                f"{len(record.committed)} commits in one cycle exceeds "
                f"the commit width {width}")

    def _check_drain(self, record: CycleRecord) -> None:
        if self._drain_pending and record.committed:
            self._report(
                "S005", record.cycle,
                f"pipeline must be drained the cycle after a flush or "
                f"exception, but {len(record.committed)} instruction(s) "
                f"committed", addr=record.committed[0].addr)

    def _check_exception(self, record: CycleRecord) -> None:
        if record.exception_is_ordering and record.exception is None:
            self._report(
                "S006", record.cycle,
                "ordering-flush flag set without an exception address")
        if record.exception is None:
            return
        if record.committed:
            self._report(
                "S006", record.cycle,
                f"exception at {record.exception:#x} must fire alone, "
                f"but {len(record.committed)} instruction(s) committed",
                addr=record.exception)
        if not record.rob_empty:
            self._report(
                "S006", record.cycle,
                f"exception at {record.exception:#x} must squash the "
                f"ROB, but it is not empty", addr=record.exception)

    def _check_head(self, record: CycleRecord) -> None:
        if self.banks is not None and len(record.head_banks) != self.banks:
            self._report(
                "S007", record.cycle,
                f"{len(record.head_banks)} head banks reported, "
                f"expected {self.banks}")
            return
        if record.rob_empty != (record.rob_head is None):
            head = record.rob_head
            self._report(
                "S007", record.cycle,
                f"rob_empty={record.rob_empty} disagrees with "
                f"rob_head={head if head is None else hex(head)}")
            return
        if record.rob_head is None:
            return
        if not 0 <= record.oldest_bank < len(record.head_banks):
            self._report(
                "S007", record.cycle,
                f"oldest_bank {record.oldest_bank} out of range")
            return
        head = record.head_banks[record.oldest_bank]
        if head is None or head.addr != record.rob_head:
            seen = None if head is None else hex(head.addr)
            self._report(
                "S007", record.cycle,
                f"head bank {record.oldest_bank} holds {seen}, but "
                f"rob_head is {record.rob_head:#x}",
                addr=record.rob_head)

    def _check_commits(self, record: CycleRecord) -> None:
        committed = record.committed
        for i, commit in enumerate(committed):
            if i > 0:
                expected = (committed[i - 1].bank + 1) % (self.banks or 1)
                if self.banks and commit.bank != expected:
                    self._report(
                        "S004", record.cycle,
                        f"commit banks must rotate round-robin: bank "
                        f"{committed[i - 1].bank} followed by bank "
                        f"{commit.bank}", addr=commit.addr)
            if commit.flushes and i != len(committed) - 1:
                self._report(
                    "S005", record.cycle,
                    f"flushing instruction {commit.addr:#x} must be the "
                    f"last commit of its cycle", addr=commit.addr)
            if self.program is not None:
                self._check_commit_semantics(record, committed, i)
        if committed and committed[-1].flushes and not record.rob_empty:
            self._report(
                "S005", record.cycle,
                f"flush at {committed[-1].addr:#x} must leave the ROB "
                f"empty", addr=committed[-1].addr)

    def _check_commit_semantics(self, record: CycleRecord,
                                committed: "tuple", i: int) -> None:
        """Program-aware S003/S008 checks for committed[i]."""
        assert self.program is not None
        commit: CommittedInst = committed[i]
        inst = self.program.fetch(commit.addr)
        if inst is None:
            self._report(
                "S003", record.cycle,
                f"committed address {commit.addr:#x} is outside the "
                f"program text", addr=commit.addr)
            return
        if commit.mispredicted and not inst.is_control:
            self._report(
                "S008", record.cycle,
                f"{inst.op.value} at {commit.addr:#x} carries the "
                f"mispredict flag but is not a control instruction",
                addr=commit.addr)
        if commit.flushes != inst.flushes_on_commit:
            self._report(
                "S008", record.cycle,
                f"{inst.op.value} at {commit.addr:#x} has flush flag "
                f"{commit.flushes}, but the opcode "
                f"{'does' if inst.flushes_on_commit else 'does not'} "
                f"flush on commit", addr=commit.addr)
        if i + 1 >= len(committed):
            return
        nxt = committed[i + 1].addr
        if inst.kind is Kind.HALT:
            self._report(
                "S003", record.cycle,
                f"halt at {commit.addr:#x} must be the final commit, "
                f"but {nxt:#x} committed after it", addr=commit.addr)
            return
        if commit.flushes:
            return  # S005 already rejects non-final flushes
        allowed = self._allowed_successors(inst)
        if allowed is not None and nxt not in allowed:
            names = ", ".join(hex(a) for a in sorted(allowed))
            self._report(
                "S003", record.cycle,
                f"{inst.op.value} at {commit.addr:#x} was followed by "
                f"{nxt:#x}, expected one of [{names}] (program order)",
                addr=commit.addr)

    @staticmethod
    def _allowed_successors(inst) -> Optional[set]:
        """Dynamic successors of *inst*, or None when unconstrained."""
        kind = inst.kind
        if kind is Kind.BRANCH:
            return {inst.imm, inst.next_addr}
        if kind in (Kind.CALL, Kind.JUMP):
            return {inst.imm}
        if kind in (Kind.RETURN, Kind.SRET):
            return None  # indirect target: not statically known
        return {inst.next_addr}

    # -- reporting ------------------------------------------------------------

    def _report(self, rule: str, cycle: int, message: str,
                addr: Optional[int] = None) -> None:
        function = None
        if addr is not None and self.program is not None:
            func = self.program.function_of(addr)
            function = func.name if func is not None else None
        diagnostic = Diagnostic(rule, Severity.ERROR, message,
                                addr=addr, function=function, cycle=cycle)
        self.violations.append(diagnostic)
        if self.fail_fast:
            raise TraceInvariantError(diagnostic)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        """One line for CLI output: cycles/commits checked, violations."""
        state = ("clean" if self.ok
                 else f"{len(self.violations)} violation(s)")
        return (f"sanitizer: {self.cycles_checked} cycles, "
                f"{self.commits_checked} commits checked, {state}")

    def report(self) -> str:
        """Full multi-line report (summary plus every violation)."""
        lines = [self.summary()]
        lines.extend(d.render() for d in self.violations)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"<TraceSanitizer cycles={self.cycles_checked} "
                f"violations={len(self.violations)}>")


def sanitize_trace(records, program: Optional[Program] = None,
                   fail_fast: bool = True) -> TraceSanitizer:
    """Run the sanitizer over an iterable of records; returns it."""
    sanitizer = TraceSanitizer(program=program, fail_fast=fail_fast)
    final = 0
    for record in records:
        sanitizer.on_cycle(record)
        final = record.cycle
    sanitizer.on_finish(final)
    return sanitizer


__all__ = ["TraceInvariantError", "TraceSanitizer", "sanitize_trace",
           "format_diag"]
