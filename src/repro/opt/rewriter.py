"""The optimizer driver: lint -> prove -> rewrite -> repeat.

Each pass lints the current program with the optimizer's rule set,
collects the structured fix hints, asks :mod:`repro.opt.legality` to
prove each one, and applies the first category of proven rewrites
through the :class:`~repro.isa.rewrite.ProgramEditor`:

1. **flush pairs** (L001/L012 ``nop``/``hoist`` hints): every provable
   save/restore pair is nop-substituted in one batch -- pure in-place
   replacements cannot interact;
2. **hoist** (L012 ``hoist`` hints that are not removable pairs): the
   first provable candidate moves to a synthesized preheader (the
   editor supports one insertion per rebuild);
3. **prune** (L011/L018 ``prune`` hints): branches with a proven
   outcome -- constant propagation or the abstract interpreter's value
   ranges -- become unconditional and stranded blocks are deleted, one
   batch per function;
4. **dead stores** (L010 ``delete`` hints): every provable dead store
   is deleted in one batch (deleting a dead definition cannot make an
   older definition visible: a read downstream would have kept it
   live).

A pass that applies nothing ends the loop.  Findings whose proof fails
are reported with the failing fact, never silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..isa.instruction import Instruction
from ..isa.program import Program
from ..isa.rewrite import ProgramEditor, nop
from ..lint.cfg import build_cfg
from ..lint.diagnostics import Diagnostic
from ..lint.linter import Linter
from ..lint.rules import LintContext, RULES_BY_ID
from .legality import (Certificate, DeadStorePlan, FlushPairPlan,
                       plan_dead_store, plan_flush_pair, plan_hoist,
                       plan_prune)

#: Rules whose fix hints the optimizer can prove and apply.
OPTIMIZABLE_RULES: Tuple[str, ...] = ("L001", "L012", "L010", "L011",
                                      "L018")


@dataclass(frozen=True)
class AppliedRewrite:
    """One rewrite that was proven legal and applied."""

    pass_index: int
    certificate: Certificate

    def to_dict(self) -> Dict:
        out = self.certificate.to_dict()
        out["pass"] = self.pass_index
        return out

    def render(self) -> str:
        cert = self.certificate
        addrs = ", ".join(f"{a:#x}" for a in cert.addrs)
        return (f"pass {self.pass_index}: {cert.rewrite} "
                f"[{cert.rule}] in {cert.function} at {addrs}")


@dataclass(frozen=True)
class SkippedFinding:
    """A lint finding whose legality proof failed."""

    rule: str
    addr: Optional[int]
    reason: str

    def to_dict(self) -> Dict:
        return {"rule": self.rule,
                "addr": f"{self.addr:#x}" if self.addr is not None
                else None,
                "reason": self.reason}

    def render(self) -> str:
        where = f"{self.addr:#x}" if self.addr is not None else "?"
        return f"skipped [{self.rule}] at {where}: {self.reason}"


@dataclass
class OptimizationResult:
    """Everything one :meth:`Optimizer.run` produced."""

    original: Program
    program: Program
    applied: List[AppliedRewrite] = field(default_factory=list)
    skipped: List[SkippedFinding] = field(default_factory=list)
    passes: int = 0

    @property
    def changed(self) -> bool:
        return bool(self.applied)

    def to_dict(self) -> Dict:
        return {"program": self.original.name,
                "passes": self.passes,
                "applied": [a.to_dict() for a in self.applied],
                "skipped": [s.to_dict() for s in self.skipped]}

    def render(self) -> str:
        lines = [f"{self.original.name}: {len(self.applied)} "
                 f"rewrite(s) in {self.passes} pass(es)"]
        lines.extend(f"  {a.render()}" for a in self.applied)
        lines.extend(f"  {s.render()}" for s in self.skipped)
        return "\n".join(lines)


class Optimizer:
    """Applies dataflow-proven rewrites suggested by the linter."""

    def __init__(self, rules: Sequence[str] = OPTIMIZABLE_RULES,
                 max_passes: int = 8, honor_ignores: bool = True):
        unknown = [r for r in rules if r not in OPTIMIZABLE_RULES]
        if unknown:
            raise ValueError(f"cannot optimize rules: {unknown}")
        self.rule_ids = tuple(rules)
        self.linter = Linter([RULES_BY_ID[r] for r in self.rule_ids])
        self.max_passes = max_passes
        self.honor_ignores = honor_ignores

    def run(self, program: Program) -> OptimizationResult:
        result = OptimizationResult(program, program)
        current = program
        for pass_index in range(1, self.max_passes + 1):
            report = self.linter.run(
                current, honor_ignores=self.honor_ignores)
            if not report.diagnostics:
                break
            ctx = LintContext(current, build_cfg(current))
            rebuilt = self._one_pass(ctx, report.diagnostics,
                                     pass_index, result)
            if rebuilt is None:
                break
            result.passes = pass_index
            current = rebuilt
        result.program = current
        return result

    # -- one pass ------------------------------------------------------------

    def _one_pass(self, ctx: LintContext,
                  diagnostics: List[Diagnostic], pass_index: int,
                  result: OptimizationResult) -> Optional[Program]:
        """Apply the first applicable rewrite category; ``None`` when
        nothing could be proven."""
        flush_diags = [d for d in diagnostics if d.fix is not None
                       and d.fix.action in ("nop", "hoist")
                       and d.addr is not None]
        skipped: List[SkippedFinding] = []

        # Category 1: batch every provable save/restore pair.
        pair_plans: Dict[int, FlushPairPlan] = {}
        hoist_candidates: List[Tuple[Diagnostic, str]] = []
        for diag in flush_diags:
            plan = plan_flush_pair(ctx, diag.addr)
            if isinstance(plan, FlushPairPlan):
                pair_plans[diag.addr] = plan
            elif diag.fix is not None and diag.fix.action == "hoist":
                hoist_candidates.append((diag, plan))
            else:
                skipped.append(SkippedFinding(diag.rule, diag.addr,
                                              plan))
        if pair_plans:
            editor = ProgramEditor(ctx.program)
            covered: set = set()
            for plan in pair_plans.values():
                for inst in (plan.save,) + plan.restores:
                    if inst.addr not in covered:
                        covered.add(inst.addr)
                        editor.replace(inst.addr, nop())
            for plan in pair_plans.values():
                result.applied.append(
                    AppliedRewrite(pass_index, plan.certificate))
            # A pair's restore side also trips L001; it is not a
            # separate miss once the pair is removed.
            result.skipped.extend(s for s in skipped
                                  if s.addr not in covered)
            return editor.build()

        # Category 2: the first provable hoist (one insertion/rebuild).
        for diag, pair_reason in hoist_candidates:
            plan = plan_hoist(ctx, diag.addr)
            if isinstance(plan, str):
                skipped.append(SkippedFinding(
                    diag.rule, diag.addr,
                    f"not a removable pair ({pair_reason}); "
                    f"hoist failed: {plan}"))
                continue
            inst = plan.inst
            editor = ProgramEditor(ctx.program)
            editor.insert_before(
                plan.site.header_addr,
                [Instruction(inst.op, inst.rd, inst.sources, inst.imm)],
                internal_addrs=plan.site.body_addrs,
                line=ctx.program.lines.get(inst.addr))
            editor.delete(inst.addr)
            result.applied.append(
                AppliedRewrite(pass_index, plan.certificate))
            # An L001 "nop" finding at the same address is fixed by
            # this hoist, not missed.
            result.skipped.extend(s for s in skipped
                                  if s.addr != inst.addr)
            return editor.build()

        # Category 3: prune constant-unreachable control flow.
        prune_functions = []
        for diag in diagnostics:
            if diag.fix is None or diag.fix.action != "prune" \
                    or diag.addr is None:
                continue
            block = ctx.cfg.block_of(diag.addr)
            if block is not None and \
                    block.function not in prune_functions:
                prune_functions.append(block.function)
        for function in prune_functions:
            plan = plan_prune(ctx, function)
            if isinstance(plan, str):
                skipped.append(SkippedFinding("L011/L018", None,
                                              f"{function}: {plan}"))
                continue
            editor = ProgramEditor(ctx.program)
            for addr, replacement in plan.branch_rewrites.items():
                editor.replace(addr, replacement)
            for addr in sorted(plan.delete_addrs):
                editor.delete(addr)
            result.applied.append(
                AppliedRewrite(pass_index, plan.certificate))
            result.skipped.extend(skipped)
            return editor.build()

        # Category 4: batch every provable dead store.
        delete_plans: List[DeadStorePlan] = []
        for diag in diagnostics:
            if diag.fix is None or diag.fix.action != "delete" \
                    or diag.addr is None:
                continue
            plan = plan_dead_store(ctx, diag.addr)
            if isinstance(plan, str):
                skipped.append(SkippedFinding(diag.rule, diag.addr,
                                              plan))
                continue
            delete_plans.append(plan)
        if delete_plans:
            editor = ProgramEditor(ctx.program)
            for plan in delete_plans:
                editor.delete(plan.inst.addr)
                result.applied.append(
                    AppliedRewrite(pass_index, plan.certificate))
            result.skipped.extend(skipped)
            return editor.build()

        result.skipped.extend(skipped)
        return None


def optimize_program(program: Program,
                     rules: Sequence[str] = OPTIMIZABLE_RULES,
                     max_passes: int = 8,
                     honor_ignores: bool = True) -> OptimizationResult:
    """Run the :class:`Optimizer` over *program*."""
    return Optimizer(rules, max_passes=max_passes,
                     honor_ignores=honor_ignores).run(program)
