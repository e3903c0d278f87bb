"""Lint rules over the control-flow graph.

Two severity classes, checked against different expectations:

* **errors** are structural defects a generated or hand-written program
  must never have (unreachable code, falling off the text segment,
  overlapping function symbols) -- the workload generators self-check
  against these;
* **warnings** are performance anti-patterns the paper's case study is
  built on (flush-inducing CSR accesses in hot code, Section 6) plus
  code-quality smells (discarded writes to ``x0``, link-register
  mismatches).

Each rule has a stable id (``L001``..) used by tests, CI greps and the
docs table in ``docs/lint.md``.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

from ..isa.instruction import Register
from ..isa.opcodes import Kind
from ..isa.program import FunctionSymbol
from .absint.rules import ABSINT_RULES, ABSINT_RULE_IDS
from .context import LintContext, LintRule
from .dataflow import used_registers
from .diagnostics import Diagnostic, FixHint, Severity

__all__ = [
    "ABSINT_RULE_IDS",
    "DATAFLOW_RULE_IDS",
    "DEFAULT_RULES",
    "LintContext",
    "LintRule",
    "RULES_BY_ID",
    "SELF_CHECK_RULE_IDS",
    "STRUCTURAL_RULE_IDS",
]


class FlushInLoopRule(LintRule):
    """The Imagick anti-pattern (paper Section 6).

    A flush-on-commit instruction (``frflags``/``fsflags``/``csrrw``/
    ``ecall``) inside a natural loop -- or in a function transitively
    called from one -- flushes the whole pipeline every iteration.  The
    paper's fix (replace the CSR pair with ``nop``) bought 1.93x on
    Imagick.
    """

    rule_id = "L001"
    name = "flush-in-loop"
    severity = Severity.WARNING
    description = ("pipeline-flushing instruction executed repeatedly "
                   "(inside a loop or a function called from one)")

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for block in ctx.cfg.blocks:
            if block.index not in ctx.cfg.reachable:
                continue
            for inst in block.instructions:
                if not inst.flushes_on_commit or inst.kind is Kind.SRET:
                    continue
                context = ctx.cfg.hot_context(inst.addr)
                if context is None:
                    continue
                how, header = context
                where = (f"inside the loop at {header:#x}"
                         if how == "loop"
                         else f"in a function called from the loop at "
                              f"{header:#x}")
                yield self.diag(
                    f"{inst.op.value} flushes the pipeline on commit "
                    f"{where}",
                    addr=inst.addr, function=block.function,
                    fix_hint=FixHint(
                        action="nop",
                        text=("replace with `nop` if the FP-status "
                              "access is not required (paper Section 6: "
                              "1.93x on Imagick)"),
                        addrs=(inst.addr,), header=header))


class SerializeInLoopRule(LintRule):
    """Serializing instructions (fence/atomics) in hot code drain the ROB."""

    rule_id = "L002"
    name = "serialize-in-loop"
    severity = Severity.WARNING
    description = ("serializing instruction executed repeatedly; each one "
                   "drains the ROB before dispatch and blocks until commit")

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for block in ctx.cfg.blocks:
            if block.index not in ctx.cfg.reachable:
                continue
            for inst in block.instructions:
                if not inst.is_serializing:
                    continue
                context = ctx.cfg.hot_context(inst.addr)
                if context is None:
                    continue
                how, header = context
                where = ("inside" if how == "loop" else "reached from")
                yield self.diag(
                    f"{inst.op.value} serializes the pipeline, "
                    f"{where} the loop at {header:#x}",
                    addr=inst.addr, function=block.function,
                    fix_hint="hoist it out of the loop if semantics allow")


class UnreachableBlockRule(LintRule):
    """Basic blocks no path from the entry point can execute."""

    rule_id = "L003"
    name = "unreachable-block"
    severity = Severity.ERROR
    description = "basic block unreachable from the program entry point"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for block in ctx.cfg.blocks:
            if block.index in ctx.cfg.reachable:
                continue
            yield self.diag(
                f"basic block {block.start:#x}..{block.end:#x} "
                f"({len(block.instructions)} instructions) is unreachable "
                f"from the entry point",
                addr=block.start, function=block.function,
                fix_hint="delete the dead code or add a path to it")


class FallThroughOffTextRule(LintRule):
    """Execution can run past the last instruction of the text segment."""

    rule_id = "L004"
    name = "fall-through-off-text"
    severity = Severity.ERROR
    description = ("a reachable path falls through the end of the text "
                   "segment into unmapped memory")

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for block in ctx.cfg.blocks:
            if not block.falls_off or block.index not in ctx.cfg.reachable:
                continue
            if block.end in ctx.program:
                continue  # falls into another function: L008's business
            yield self.diag(
                f"{block.terminator.op.value} at {block.terminator.addr:#x} "
                f"can fall through past the end of the text segment "
                f"({ctx.program.text_hi:#x})",
                addr=block.terminator.addr, function=block.function,
                fix_hint="end the path with halt, a jump or a return")


class ZeroRegisterWriteRule(LintRule):
    """Non-control writes to the hard-wired zero register are dead."""

    rule_id = "L005"
    name = "zero-register-write"
    severity = Severity.WARNING
    description = ("instruction writes x0; the result is silently "
                   "discarded (x0 is hard-wired to zero)")

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for block in ctx.cfg.blocks:
            for inst in block.instructions:
                if inst.rd != 0 or inst.rd is None:
                    continue
                # jalr x0 (return) and jal x0 (jump) discard the link on
                # purpose; nop is the canonical x0 write.
                if inst.is_control or inst.kind is Kind.NOP:
                    continue
                yield self.diag(
                    f"{inst.op.value} writes {Register.name(0)}; the "
                    f"result is discarded",
                    addr=inst.addr, function=block.function,
                    fix_hint="drop the instruction or pick a real "
                             "destination register")


class FunctionOverlapRule(LintRule):
    """Function symbol ranges that overlap each other.

    Overlaps make profile attribution ambiguous and are how
    self-modifying or mis-linked images show up in the symbol table.
    """

    rule_id = "L006"
    name = "function-overlap"
    severity = Severity.ERROR
    description = "two function symbols cover overlapping address ranges"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        funcs: List[FunctionSymbol] = ctx.program.functions  # sorted by lo
        for prev, cur in zip(funcs, funcs[1:]):
            if cur.lo < prev.hi:
                yield self.diag(
                    f"function {cur.name!r} [{cur.lo:#x}, {cur.hi:#x}) "
                    f"overlaps {prev.name!r} [{prev.lo:#x}, {prev.hi:#x})",
                    addr=cur.lo, function=cur.name,
                    fix_hint="fix the symbol ranges so every address maps "
                             "to exactly one function")


class CallReturnMismatchRule(LintRule):
    """Calls that cannot return to their call site.

    Two shapes: a direct call into the *middle* of a function (the
    callee's entry is bypassed), and a callee whose returns use a
    different link register than the one the call wrote -- its ``jalr``
    will jump through a stale register.
    """

    rule_id = "L007"
    name = "call-return-mismatch"
    severity = Severity.WARNING
    description = ("call target is not a function entry, or the callee "
                   "returns through a different link register")

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        returns = self._returns_by_function(ctx)
        for block in ctx.cfg.blocks:
            if block.index not in ctx.cfg.reachable:
                continue
            term = block.terminator
            if term.kind is not Kind.CALL or term.is_jump:
                continue
            target = term.imm
            callee = ctx.program.function_of(target)
            if callee is None:
                continue
            if target != callee.lo:
                yield self.diag(
                    f"{term.op.value} targets {target:#x}, the middle of "
                    f"{callee.name!r} (entry {callee.lo:#x})",
                    addr=term.addr, function=block.function,
                    fix_hint=f"call {callee.name!r} at its entry point")
                continue
            link = term.rd
            ret_regs = returns.get(callee.name)
            if link is None or not ret_regs:
                continue
            if link not in ret_regs:
                names = ", ".join(sorted(Register.name(r)
                                         for r in ret_regs))
                yield self.diag(
                    f"call links through {Register.name(link)} but "
                    f"{callee.name!r} returns through {names}",
                    addr=term.addr, function=block.function,
                    fix_hint="use the callee's link register or fix "
                             "the callee's return")

    @staticmethod
    def _returns_by_function(ctx: LintContext) -> Dict[str, set]:
        """Function name -> set of link registers its returns read."""
        out: Dict[str, set] = {}
        for block in ctx.cfg.blocks:
            term = block.terminator
            if term.kind is Kind.RETURN and not term.can_fall_through \
                    and term.sources:
                out.setdefault(block.function, set()).add(term.sources[0])
        return out


class ImplicitFallThroughRule(LintRule):
    """A reachable path runs off the end of one function into the next."""

    rule_id = "L008"
    name = "implicit-fall-through"
    severity = Severity.WARNING
    description = ("execution can fall off the end of a function into "
                   "the one after it without an explicit transfer")

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for block in ctx.cfg.blocks:
            if not block.falls_off or block.index not in ctx.cfg.reachable:
                continue
            nxt = ctx.cfg.block_of(block.end)
            if nxt is None:
                continue  # off the text entirely: L004's business
            yield self.diag(
                f"{block.function!r} can fall through into "
                f"{nxt.function!r} at {block.end:#x}",
                addr=block.terminator.addr, function=block.function,
                fix_hint="end the function with an explicit return or "
                         "jump")


class UninitializedReadRule(LintRule):
    """Reads of registers no definition dominates (entry function only).

    Uses the definite-assignment must-analysis: at the program entry
    point nothing has been initialized, so a read the analysis cannot
    prove assigned on *every* path really does observe whatever the
    reset state left behind.  Non-entry functions are exempt -- their
    live-in registers are arguments supplied by the caller, which the
    intraprocedural analysis cannot see.
    """

    rule_id = "L009"
    name = "uninitialized-read"
    severity = Severity.WARNING
    description = ("register read before any assignment on some path "
                   "from the program entry point")

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        entry_fn = ctx.function_name(ctx.program.entry)
        if entry_fn is None:
            return
        indices = ctx.cfg.functions.get(entry_fn)
        if not indices \
                or ctx.cfg.blocks[indices[0]].start != ctx.program.entry:
            return  # entry is mid-function; the walk would be wrong
        assignment = ctx.assignment(entry_fn)
        flagged: set = set()
        for index in sorted(assignment.states):
            block = ctx.cfg.blocks[index]
            for inst, assigned in assignment.at(block):
                for reg in used_registers(inst):
                    if reg in assigned or reg in flagged:
                        continue
                    flagged.add(reg)
                    yield self.diag(
                        f"{inst.op.value} reads {Register.name(reg)} "
                        f"before any assignment on some path from the "
                        f"entry point",
                        addr=inst.addr, function=block.function,
                        fix_hint=f"initialize {Register.name(reg)} "
                                 f"before this use")


class DeadStoreRule(LintRule):
    """Computed values no later instruction can ever read.

    Backward liveness with conservative boundaries: everything is live
    at returns/halts and across calls, so a store flagged here is dead
    on *every* path, not just the hot one.  Only pure computation kinds
    are candidates -- memory, control and CSR accesses have effects
    beyond their destination register.
    """

    rule_id = "L010"
    name = "dead-store"
    severity = Severity.WARNING
    description = ("instruction result is never read on any path "
                   "(dead store)")

    _KINDS = frozenset({Kind.ALU, Kind.MUL, Kind.DIV, Kind.FP_ALU,
                        Kind.FP_DIV})

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for function in ctx.cfg.functions:
            liveness = ctx.liveness(function)
            for index in sorted(liveness.states):
                if index not in ctx.cfg.reachable:
                    continue
                block = ctx.cfg.blocks[index]
                live_after = liveness.live_after(block)
                for inst, live in zip(block.instructions, live_after):
                    if inst.kind not in self._KINDS:
                        continue
                    if inst.rd is None or inst.rd == 0:
                        continue  # x0 writes are L005's business
                    if inst.rd in live:
                        continue
                    yield self.diag(
                        f"{inst.op.value} writes "
                        f"{Register.name(inst.rd)} but the value is "
                        f"never read",
                        addr=inst.addr, function=block.function,
                        fix_hint=FixHint(
                            action="delete",
                            text="delete the instruction or use its "
                                 "result",
                            addrs=(inst.addr,)))


class ConstantUnreachableRule(LintRule):
    """Blocks only reachable through statically-false branches.

    L003 finds blocks with no inbound path at all; this rule finds the
    semantic kind -- the path exists, but constant propagation proves
    the branch guarding it always goes the other way.
    """

    rule_id = "L011"
    name = "const-unreachable"
    severity = Severity.WARNING
    description = ("basic block can never execute: every path to it "
                   "crosses a branch whose outcome is a constant")

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for function in ctx.cfg.functions:
            constants = ctx.constants(function)
            dead = constants.structural - constants.executable
            for index in sorted(dead):
                if index not in ctx.cfg.reachable:
                    continue  # structurally unreachable: L003's business
                block = ctx.cfg.blocks[index]
                detail = ""
                for pred in block.predecessors:
                    if pred in constants.verdicts:
                        term = ctx.cfg.blocks[pred].terminator
                        way = ("taken" if constants.verdicts[pred]
                               else "fall-through")
                        detail = (f"; {term.op.value} at "
                                  f"{term.addr:#x} is always {way}")
                        break
                yield self.diag(
                    f"block {block.start:#x}..{block.end:#x} can never "
                    f"execute{detail}",
                    addr=block.start, function=block.function,
                    fix_hint=FixHint(
                        action="prune",
                        text="remove the dead code or fix the branch "
                             "condition",
                        addrs=tuple(i.addr
                                    for i in block.instructions)))


class InvariantFlushRule(LintRule):
    """Loop-invariant flush-inducing CSR accesses (semantic Section 6).

    L001 flags *any* flush instruction in hot code; this rule proves
    more: the instruction's operands cannot change between executions,
    so it recomputes the same value while flushing the pipeline every
    time -- exactly the Imagick ``frflags``/``fsflags`` shape.  Works
    on multi-block loop bodies via reaching definitions, and on the
    called-from-a-loop shape by treating the whole callee as the
    repeated region (with entry values considered variant, since each
    call may pass different registers).
    """

    rule_id = "L012"
    name = "invariant-flush"
    severity = Severity.WARNING
    description = ("flush-inducing instruction is loop-invariant: it "
                   "recomputes the same value every iteration")

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for block in ctx.cfg.blocks:
            if block.index not in ctx.cfg.reachable:
                continue
            for inst in block.instructions:
                if not inst.flushes_on_commit or inst.kind is Kind.SRET:
                    continue
                context = ctx.cfg.hot_context(inst.addr)
                if context is None:
                    continue
                how, header = context
                function = block.function
                if how == "loop":
                    loop = ctx.loop_nest(function).innermost(block.index)
                    if loop is None:
                        continue
                    region = frozenset(loop.body)
                    entry_is_variant = False
                    where = f"the loop at {header:#x}"
                else:
                    reaching = ctx.reaching(function)
                    region = frozenset(reaching.states)
                    entry_is_variant = True
                    where = (f"every call of {function!r} from the "
                             f"loop at {header:#x}")
                invariant = ctx.invariants(function, region,
                                           entry_is_variant)
                if inst.addr not in invariant:
                    continue
                yield self.diag(
                    f"{inst.op.value} is loop-invariant: it recomputes "
                    f"the same value in {where} while flushing the "
                    f"pipeline on every commit",
                    addr=inst.addr, function=function,
                    fix_hint=FixHint(
                        action="hoist",
                        text=("hoist the access out of the loop, or "
                              "replace the pair with `nop` if the "
                              "FP-status result is unused (paper "
                              "Section 6: 1.93x on Imagick)"),
                        addrs=(inst.addr,), header=header))


class NoTimeDrivenExitRule(LintRule):
    """Loops whose exit conditions nothing inside the loop can change.

    The event-driven fast path (``--sim fast``) advances time to the
    next scheduled event; a loop that neither terminates (halt/return/
    call) nor redefines any register its exit branches test will spin
    without generating events -- the static shape behind fast-path
    non-quiescence.
    """

    rule_id = "L013"
    name = "no-time-driven-exit"
    severity = Severity.WARNING
    description = ("loop has no exit whose condition changes inside "
                   "the loop body")

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        merged: Dict[Tuple[str, int], Set[int]] = {}
        for loop in ctx.cfg.loops:
            key = (loop.function, loop.header)
            merged.setdefault(key, set()).update(loop.body)
        for (function, header_index), body in sorted(
                merged.items(), key=lambda kv: kv[0][1]):
            if header_index not in ctx.cfg.reachable:
                continue
            header = ctx.cfg.blocks[header_index].start
            if not self._spins_forever(ctx, function, body):
                continue
            yield self.diag(
                f"loop at {header:#x} has no time-driven exit: no exit "
                f"condition is redefined inside the loop body",
                addr=header, function=function,
                fix_hint=("make an exit branch test state the loop "
                          "updates; the event-driven fast path "
                          "(`--sim fast`) cannot quiesce a loop with "
                          "no pending events"))

    @staticmethod
    def _spins_forever(ctx: LintContext, function: str,
                       body: Set[int]) -> bool:
        reaching = ctx.reaching(function)
        absint = ctx.absint()
        body_addrs = {inst.addr for index in body
                      for inst in ctx.cfg.blocks[index].instructions}
        for index in body:
            block = ctx.cfg.blocks[index]
            # Calls, halts, returns and fall-offs all hand control to
            # code outside the loop: conservatively time-driven.
            if block.call_targets or block.falls_off:
                return False
            term = block.terminator
            if term.kind in (Kind.HALT, Kind.SRET, Kind.RETURN,
                             Kind.CALL):
                return False
            exits = any(succ not in body for succ in block.successors)
            if not exits:
                continue
            if not term.is_branch:
                return False  # unconditional transfer out of the loop
            if NoTimeDrivenExitRule._absint_stays_in(ctx, absint,
                                                     index, body):
                # Value ranges prove the exit edge is never taken:
                # this "exit" cannot end the spin.
                continue
            env = None
            for inst, value in reaching.at(block):
                if inst is term:
                    env = value
            for reg in used_registers(term):
                sites = (env or {}).get(reg, frozenset())
                if sites & frozenset(body_addrs):
                    return False  # the condition changes in the loop
        return True

    @staticmethod
    def _absint_stays_in(ctx: LintContext, absint, index: int,
                         body: Set[int]) -> bool:
        """Does the abstract interpretation prove the branch ending
        block *index* always stays inside *body*?"""
        if index not in absint.verdicts:
            return False
        term = ctx.cfg.blocks[index].terminator
        target = term.imm if absint.verdicts[index] else term.next_addr
        succ = ctx.cfg.block_index_of(target)
        return succ is not None and succ in body


#: The default rule line-up, in report order.
DEFAULT_RULES: Tuple[LintRule, ...] = (
    FlushInLoopRule(),
    SerializeInLoopRule(),
    UnreachableBlockRule(),
    FallThroughOffTextRule(),
    ZeroRegisterWriteRule(),
    FunctionOverlapRule(),
    CallReturnMismatchRule(),
    ImplicitFallThroughRule(),
    UninitializedReadRule(),
    DeadStoreRule(),
    ConstantUnreachableRule(),
    InvariantFlushRule(),
    NoTimeDrivenExitRule(),
) + ABSINT_RULES

#: Rule id -> rule instance.
RULES_BY_ID: Dict[str, LintRule] = {r.rule_id: r for r in DEFAULT_RULES}

#: Structural rules every generated workload must pass (self-check set).
STRUCTURAL_RULE_IDS: Tuple[str, ...] = ("L003", "L004", "L006")

#: The dataflow-powered rule family (toggled by ``--no-dataflow``).
#: The abstract-interpretation rules (L014..) ride the same switch --
#: they are strictly deeper analyses of the same kind.
DATAFLOW_RULE_IDS: Tuple[str, ...] = ("L009", "L010", "L011", "L012",
                                      "L013") + ABSINT_RULE_IDS

#: Rules the workload generators self-check against: the structural
#: errors plus const-proven unreachable code plus the memory-safety /
#: stack-discipline proofs (any diagnostic from this set fails the
#: build, regardless of severity).  L018/L019 stay advisory: a proven
#: one-way branch or an over-long loop is suspicious, not wrong.
SELF_CHECK_RULE_IDS: Tuple[str, ...] = STRUCTURAL_RULE_IDS + (
    "L011", "L014", "L015", "L016", "L017")
