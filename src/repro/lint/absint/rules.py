"""Lint rules powered by the abstract interpretation (L014..L019).

Every rule here only claims what the engine *proves*: a finding means
"this holds on every concrete execution", never "this might happen".
On programs whose control flow the engine cannot model (see
``engine.AbstractInterpreter._unsupported_flow``) the result degrades
to TOP and the whole family is silent -- sound, just not informative.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Set, Tuple

from ...cpu.memo import MAX_PERIOD
from ...isa.instruction import Register
from ..context import LintContext, LintRule
from ..diagnostics import Diagnostic, FixHint, Severity
from .abi import CALLEE_SAVED, STACK_POINTER
from .domain import ALL_RESIDUES, AbsVal

#: Bytes covered by one declared data word.
_WORD = 8


def _mapped_intervals(ctx: LintContext) -> List[Tuple[int, int]]:
    """The program's legally-touchable memory as coalesced half-open
    byte ranges: every declared data word plus any premapped regions
    the harness installs before the program runs."""
    # Data images run to hundreds of thousands of mostly contiguous
    # words: coalesce the sorted addresses into runs first, so only a
    # handful of ranges meet the regions in the general merge below.
    raw: List[Tuple[int, int]] = []
    addrs = sorted(ctx.program.data)
    if addrs:
        start = end = addrs[0]
        for addr in addrs:
            if addr > end:  # a gap: close the run
                raw.append((start, end))
                start = addr
            end = addr + _WORD  # distinct addresses: the run grows
        raw.append((start, end))
    raw.extend((int(lo), int(hi)) for lo, hi in ctx.regions if hi > lo)
    raw.sort()
    merged: List[Tuple[int, int]] = []
    for lo, hi in raw:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def _may_touch(value: AbsVal, size: int, lo: int, hi: int) -> bool:
    """Could an access of *size* bytes at some address in *value*'s
    concretization overlap the byte range ``[lo, hi)``?"""
    # The access [a, a+size) overlaps iff a in (lo-size, hi).
    window_lo = max(value.lo, float(lo - size + 1))
    window_hi = min(value.hi, float(hi - 1))
    if window_lo > window_hi:
        return False
    start = math.ceil(window_lo)
    end = math.floor(window_hi)
    if start > end:
        return False
    if end - start + 1 >= 8 or value.res == ALL_RESIDUES:
        return True
    return any((x & 7) in value.res for x in range(start, end + 1))


def _fmt_value(value: AbsVal) -> str:
    lo = "-inf" if value.lo == float("-inf") else f"{int(value.lo):#x}"
    hi = "+inf" if value.hi == float("inf") else f"{int(value.hi):#x}"
    text = f"[{lo}, {hi}]"
    if value.res != ALL_RESIDUES:
        text += " = {" + ",".join(str(r) for r in sorted(value.res)) \
                + "} (mod 8)"
    return text


class OutOfBoundsAccessRule(LintRule):
    """Memory accesses proven to never touch mapped memory.

    The guest memory model silently reads zero from (and writes into)
    unmapped addresses, so an access whose *entire* abstract address
    set is disjoint from the data image and the premapped regions is
    almost certainly a base/offset bug -- the load observes garbage
    zeros, the store's value is never seen by anything that matters.
    Stack-relative accesses are exempt (the stack is implicitly
    mapped), and programs with no data image at all are skipped.
    """

    rule_id = "L014"
    name = "oob-access"
    severity = Severity.WARNING
    description = ("memory access provably outside the data image and "
                   "every premapped region on all executions")

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        mapped = _mapped_intervals(ctx)
        if not mapped:
            return
        result = ctx.absint()
        for addr in sorted(result.accesses):
            access = result.accesses[addr]
            value = access.value
            if access.sp_relative or not value.res:
                continue
            if any(_may_touch(value, access.size, lo, hi)
                   for lo, hi in mapped):
                continue
            what = "store to" if access.is_store else "load from"
            yield self.diag(
                f"{access.op.value} is always out of bounds: every "
                f"possible {what} address {_fmt_value(value)} misses "
                f"the data image and all premapped regions",
                addr=addr, function=access.function,
                fix_hint="fix the base address or declare the target "
                         "memory in the data image")


class MisalignedAccessRule(LintRule):
    """Accesses whose address congruence proves misalignment.

    8-byte operations must hit addresses ``== 0 (mod 8)``; ``lw``/``sw``
    must hit a 4-byte boundary.  A finding means *no* reachable
    execution can produce an aligned address for this instruction.
    """

    rule_id = "L015"
    name = "misaligned-access"
    severity = Severity.WARNING
    description = ("memory access address is provably misaligned for "
                   "its width on every execution")

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        result = ctx.absint()
        for addr in sorted(result.accesses):
            access = result.accesses[addr]
            value = access.value
            if value.res == ALL_RESIDUES or not value.res:
                continue
            allowed = frozenset({0}) if access.size == 8 \
                else frozenset({0, 4})
            if value.res & allowed:
                continue
            residues = ",".join(str(r) for r in sorted(value.res))
            need = ",".join(str(r) for r in sorted(allowed))
            yield self.diag(
                f"{access.op.value} is always misaligned: the address "
                f"is == {{{residues}}} (mod 8) but a {access.size}-byte "
                f"access needs {{{need}}}",
                addr=addr, function=access.function,
                fix_hint="align the base or the offset to the access "
                         "width")


class StackImbalanceRule(LintRule):
    """Functions returning with the stack pointer off its entry value.

    ``x31`` is the stack pointer by repo convention; the engine tracks
    it as an offset from the function-entry value, so a return where
    zero is provably outside the offset interval leaks (or pops) stack
    on every path through that return.
    """

    rule_id = "L016"
    name = "stack-imbalance"
    severity = Severity.WARNING
    description = ("function returns with the stack pointer provably "
                   "offset from its entry value")

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        result = ctx.absint()
        for function in sorted(result.return_states):
            for term, state in result.return_states[function]:
                value = state.reg(STACK_POINTER)
                if value.sp is None:
                    continue
                lo, hi = value.sp
                if lo <= 0 <= hi:
                    continue
                span = f"{int(lo)}" if lo == hi \
                    else f"[{int(lo)}, {int(hi)}]"
                yield self.diag(
                    f"{function!r} returns with "
                    f"{Register.name(STACK_POINTER)} offset by {span} "
                    f"bytes from its entry value",
                    addr=term.addr, function=function,
                    fix_hint="pop everything the function pushed "
                             "before returning")


class ClobberedCalleeSavedRule(LintRule):
    """Callee-saved registers not restored before a return.

    ``x28..x30`` are callee-saved by repo convention.  A function that
    writes one directly and reaches a return where the engine cannot
    prove the entry value was restored (through any spill/reload
    sequence -- the frame tracking follows saves through memory)
    clobbers its caller's state.
    """

    rule_id = "L017"
    name = "clobbered-callee-saved"
    severity = Severity.WARNING
    description = ("function writes a callee-saved register and returns "
                   "without restoring its entry value")

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        result = ctx.absint()
        for function in sorted(result.return_states):
            written: Set[int] = set()
            for index in ctx.cfg.functions.get(function, ()):
                for inst in ctx.cfg.blocks[index].instructions:
                    if inst.rd in CALLEE_SAVED:
                        written.add(inst.rd)
            if not written:
                continue
            for term, state in result.return_states[function]:
                clobbered = sorted(
                    reg for reg in written
                    if state.reg(reg).entry_of != reg)
                if not clobbered:
                    continue
                names = ", ".join(Register.name(r) for r in clobbered)
                yield self.diag(
                    f"{function!r} returns with callee-saved {names} "
                    f"not restored to the entry value",
                    addr=term.addr, function=function,
                    fix_hint="save the register at entry and restore "
                             "it before returning, or use a "
                             "caller-saved register")


class RangeDeadBranchRule(LintRule):
    """Branches the value ranges decide, beyond constant propagation.

    L011 already covers branches constant propagation proves one-way;
    this rule fires only on the *extra* verdicts the interval/congruence
    domains deliver (e.g. an odd counter compared against zero), so the
    two rules never double-report.
    """

    rule_id = "L018"
    name = "range-dead-branch"
    severity = Severity.WARNING
    description = ("branch outcome is proven by value ranges: one side "
                   "is dead on every execution")

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        result = ctx.absint()
        for index in sorted(result.verdicts):
            block = ctx.cfg.blocks[index]
            term = block.terminator
            if index in ctx.constants(block.function).verdicts:
                continue  # const-prop already proves it: L011 territory
            if term.imm == term.next_addr:
                continue  # both ways land on the same block
            verdict = result.verdicts[index]
            way = "taken" if verdict else "fall-through"
            dead = term.next_addr if verdict else term.imm
            yield self.diag(
                f"{term.op.value} is always {way}: value ranges prove "
                f"the path via {dead:#x} dead",
                addr=term.addr, function=block.function,
                fix_hint=FixHint(
                    action="prune",
                    text="remove the dead path or fix the condition",
                    addrs=(term.addr,)))


class UnmemoizableLoopRule(LintRule):
    """Bounded loops too long for the steady-state memoizer.

    The fast path (:mod:`repro.cpu.memo`) can only replay loop bodies
    of up to ``MAX_PERIOD`` committed instructions; a loop the engine
    proves runs many iterations with a longer body will be re-simulated
    in full every iteration.  Informational: the result is correct,
    just slower than it could be.
    """

    rule_id = "L019"
    name = "unmemoizable-loop"
    severity = Severity.INFO
    description = ("statically-bounded loop body exceeds the simulator's "
                   "steady-state memoization window")

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        result = ctx.absint()
        bodies: Dict[Tuple[str, int], Set[int]] = {}
        for loop in ctx.cfg.loops:
            bodies.setdefault((loop.function, loop.header),
                              set()).update(loop.body)
        for key in sorted(result.trip_bounds,
                          key=lambda k: (k[0], k[1])):
            function, header = key
            trips = result.trip_bounds[key]
            if trips < 2:
                continue
            body = bodies.get(key, set())
            count = sum(len(ctx.cfg.blocks[i].instructions)
                        for i in body)
            if count <= MAX_PERIOD:
                continue
            header_addr = ctx.cfg.blocks[header].start
            yield self.diag(
                f"loop at {header_addr:#x} runs {trips} iterations of a "
                f"{count}-instruction body, beyond the steady-state "
                f"memoizer's {MAX_PERIOD}-instruction window; every "
                f"iteration is re-simulated in full",
                addr=header_addr, function=function,
                fix_hint="split the body or shrink the loop so the "
                         "fast path can capture its period")


#: The absint rule family, in id order.
ABSINT_RULES: Tuple[LintRule, ...] = (
    OutOfBoundsAccessRule(),
    MisalignedAccessRule(),
    StackImbalanceRule(),
    ClobberedCalleeSavedRule(),
    RangeDeadBranchRule(),
    UnmemoizableLoopRule(),
)

ABSINT_RULE_IDS: Tuple[str, ...] = tuple(r.rule_id for r in ABSINT_RULES)
