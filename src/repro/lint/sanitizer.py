"""Commit-trace sanitizer: invariant checks over the trace's columns.

Every profiler in this repo silently assumes the per-cycle commit trace
is well-formed: commits arrive in program order, cycle numbers are
dense, a pipeline flush actually drains the machine, banks rotate
round-robin.  gem5 catches whole bug classes with built-in sanity
checkers; :class:`TraceSanitizer` is the equivalent for our trace --
attach it to a :class:`~repro.cpu.machine.Machine` (or a trace replay)
and it validates every cycle of every
:class:`~repro.fastpath.block.CycleBlock` against the commit-stage
invariants, failing fast with a cycle-numbered report.

Invariants (rule ids used in reports and tests):

* ``S001 monotone-cycle``      -- cycle numbers increase by exactly 1
  (a block is dense by construction, so this is checked where one block
  meets the next);
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
* ``S007 head-consistency``    -- ``rob_head`` and ``rob_empty`` agree,
  ``oldest_bank`` is a valid bank, and the trace has the configured
  bank count;
* ``S008 flag-consistency``    -- the mispredict flag only on control
  instructions, the flush flag exactly on flush-on-commit opcodes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..analysis.report import format_diag
from ..fastpath.block import (_F_EMPTY, _F_EXC, _F_HEAD, _F_ORD,
                              _M_FLUSHES, _M_MISPREDICT, CycleBlock)
from ..fastpath.engine import replay_blocks
from ..isa.instruction import Instruction
from ..isa.opcodes import Kind
from ..isa.program import Program
from ..cpu.trace import TraceObserver
from .diagnostics import Diagnostic, Severity

#: The flag bits that decide the per-cycle state checks; a row whose
#: bits read "ROB holds a head" alone is a plain stall.
_STATE = _F_EMPTY | _F_EXC | _F_ORD | _F_HEAD


class TraceInvariantError(RuntimeError):
    """A commit-trace invariant was violated (fail-fast mode)."""

    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.render())
        self.diagnostic = diagnostic


class TraceSanitizer(TraceObserver):
    """Validates the commit-stage trace cycle by cycle.

    Every batch -- a live core's open block of stepped cycles and
    stall runs, a memoized loop period, a replayed chunk -- is checked
    on its columns, one cycle at a time, so every cycle is checked, not
    inferred, and no record is materialized.  A fault on a live run
    surfaces when its block closes: the core closes the open block
    before any exception leaves :meth:`~repro.cpu.core.Core.run`, so
    the violation is raised first.

    Parameters
    ----------
    program:
        The *booted image* being executed (application plus kernel
        text), enabling the program-aware checks (S003, S008).  ``None``
        restricts the sanitizer to the structural invariants.
    commit_width:
        Maximum commits per cycle; defaults to the bank count.
    banks:
        Number of ROB banks; taken from the first block if ``None``.
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
        #: Committed address -> its instruction (``None`` off the text)
        #: and :meth:`_allowed_successors`, worked out once per address.
        self._facts: Dict[int, Tuple[Optional[Instruction],
                                     Optional[frozenset]]] = {}

    @classmethod
    def for_machine(cls, machine: "object",
                    fail_fast: bool = True) -> "TraceSanitizer":
        """Build a sanitizer matching a Machine's image and config."""
        config = machine.config  # type: ignore[attr-defined]
        return cls(program=machine.image,  # type: ignore[attr-defined]
                   commit_width=config.commit_width,
                   banks=config.rob_banks, fail_fast=fail_fast)

    # -- observer interface ---------------------------------------------------

    def on_block(self, block: CycleBlock) -> None:
        n = block.n
        if not n:
            return
        if self.banks is None:
            self.banks = block.banks or None
        if self.commit_width is None:
            self.commit_width = self.banks
        start = block.start_cycle
        if self._last_cycle is not None and start != self._last_cycle + 1:
            self._report(
                "S001", start,
                f"cycle numbers must be dense: {self._last_cycle} was "
                f"followed by {start}")
        width = self.commit_width
        stored = block.banks
        wrong_banks = self.banks is not None and stored != self.banks
        base = block.commit_base
        addrs, metas = block.commit_addr, block.commit_meta
        drain = self._drain_pending
        for i, (f, oldest, lo, hi) in enumerate(zip(
                block.flags, block.oldest_bank, base, base[1:])):
            if (f & _STATE == _F_HEAD and lo == hi and not drain
                    and oldest < stored and not wrong_banks):
                continue  # a plain stall cycle breaks no invariant
            cycle = start + i
            if width is not None and hi - lo > width:
                self._report(
                    "S002", cycle,
                    f"{hi - lo} commits in one cycle exceeds the commit "
                    f"width {width}")
            if drain and hi > lo:
                self._report(
                    "S005", cycle,
                    f"pipeline must be drained the cycle after a flush "
                    f"or exception, but {hi - lo} instruction(s) "
                    f"committed", addr=addrs[lo])
            empty = bool(f & _F_EMPTY)
            exception = block.exception_at(i)
            if f & _F_ORD and exception is None:
                self._report(
                    "S006", cycle,
                    "ordering-flush flag set without an exception address")
            if exception is not None:
                if hi > lo:
                    self._report(
                        "S006", cycle,
                        f"exception at {exception:#x} must fire alone, "
                        f"but {hi - lo} instruction(s) committed",
                        addr=exception)
                if not empty:
                    self._report(
                        "S006", cycle,
                        f"exception at {exception:#x} must squash the "
                        f"ROB, but it is not empty", addr=exception)
            head = block.rob_head_at(i)
            if wrong_banks:
                self._report(
                    "S007", cycle,
                    f"{stored} head banks reported, expected {self.banks}")
            elif empty != (head is None):
                self._report(
                    "S007", cycle,
                    f"rob_empty={empty} disagrees with "
                    f"rob_head={head if head is None else hex(head)}")
            elif head is not None and oldest >= stored:
                self._report(
                    "S007", cycle, f"oldest_bank {oldest} out of range")
            for k in range(lo, hi):
                self._check_commit(cycle, addrs, metas, k, lo, hi)
            if hi > lo and metas[hi - 1] & _M_FLUSHES and not empty:
                self._report(
                    "S005", cycle,
                    f"flush at {addrs[hi - 1]:#x} must leave the ROB "
                    f"empty", addr=addrs[hi - 1])
            drain = exception is not None or any(
                metas[k] & _M_FLUSHES for k in range(lo, hi))
        self._drain_pending = drain
        self._last_cycle = start + n - 1
        self.cycles_checked += n
        self.commits_checked += base[n] - base[0]

    # -- pooled runs: results cross processes as snapshots --------------------

    def snapshot(self) -> dict:
        """Picklable capture of this sanitizer's checking results."""
        return {
            "cycles_checked": self.cycles_checked,
            "commits_checked": self.commits_checked,
            "violations": list(self.violations),
        }

    def absorb(self, snapshot: dict) -> None:
        """Fold a snapshot (a pool worker's payload) into this
        sanitizer."""
        self.cycles_checked += snapshot["cycles_checked"]
        self.commits_checked += snapshot["commits_checked"]
        self.violations.extend(snapshot["violations"])

    # -- per-commit invariants ------------------------------------------------

    def _check_commit(self, cycle: int, addrs, metas, k: int, lo: int,
                      hi: int) -> None:
        """S004, S005 and (with a program) S003/S008 for commit *k* of
        the cycle's commits ``[lo, hi)``."""
        addr, meta = addrs[k], metas[k]
        flushes = bool(meta & _M_FLUSHES)
        if k > lo and self.banks:
            prev = metas[k - 1] & 0x3F
            if meta & 0x3F != (prev + 1) % self.banks:
                self._report(
                    "S004", cycle,
                    f"commit banks must rotate round-robin: bank {prev} "
                    f"followed by bank {meta & 0x3F}", addr=addr)
        if flushes and k != hi - 1:
            self._report(
                "S005", cycle,
                f"flushing instruction {addr:#x} must be the last commit "
                f"of its cycle", addr=addr)
        if self.program is None:
            return
        facts = self._facts.get(addr)
        if facts is None:
            inst = self.program.fetch(addr)
            facts = self._facts[addr] = (
                inst, None if inst is None else
                self._allowed_successors(inst))
        inst, allowed = facts
        if inst is None:
            self._report(
                "S003", cycle,
                f"committed address {addr:#x} is outside the program "
                f"text", addr=addr)
            return
        if meta & _M_MISPREDICT and not inst.is_control:
            self._report(
                "S008", cycle,
                f"{inst.op.value} at {addr:#x} carries the mispredict "
                f"flag but is not a control instruction", addr=addr)
        if flushes != inst.flushes_on_commit:
            self._report(
                "S008", cycle,
                f"{inst.op.value} at {addr:#x} has flush flag {flushes}, "
                f"but the opcode "
                f"{'does' if inst.flushes_on_commit else 'does not'} "
                f"flush on commit", addr=addr)
        if k + 1 >= hi:
            return
        nxt = addrs[k + 1]
        if inst.kind is Kind.HALT:
            self._report(
                "S003", cycle,
                f"halt at {addr:#x} must be the final commit, but "
                f"{nxt:#x} committed after it", addr=addr)
            return
        if flushes:
            return  # S005 already rejects non-final flushes
        if allowed is not None and nxt not in allowed:
            names = ", ".join(hex(a) for a in sorted(allowed))
            self._report(
                "S003", cycle,
                f"{inst.op.value} at {addr:#x} was followed by {nxt:#x}, "
                f"expected one of [{names}] (program order)", addr=addr)

    @staticmethod
    def _allowed_successors(inst) -> Optional[frozenset]:
        """Dynamic successors of *inst*, or None when unconstrained."""
        kind = inst.kind
        if kind is Kind.BRANCH:
            return frozenset((inst.imm, inst.next_addr))
        if kind in (Kind.CALL, Kind.JUMP):
            return frozenset((inst.imm,))
        if kind in (Kind.RETURN, Kind.SRET):
            return None  # indirect target: not statically known
        return frozenset((inst.next_addr,))

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


def sanitize_trace(trace, program: Optional[Program] = None,
                   fail_fast: bool = True) -> TraceSanitizer:
    """Replay a v3 trace (a path, ``bytes``, a stream or an open
    :class:`~repro.cpu.tracefile.TraceReaderV3`) through a fresh
    sanitizer, one block per chunk; returns the sanitizer."""
    sanitizer = TraceSanitizer(program=program, fail_fast=fail_fast)
    replay_blocks(trace, sanitizer)
    return sanitizer


__all__ = ["TraceInvariantError", "TraceSanitizer", "sanitize_trace",
           "format_diag"]
