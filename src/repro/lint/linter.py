"""The linter driver: run rules over a program, collect a report."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..isa.program import Program
from .cfg import build_cfg
from .diagnostics import Diagnostic, Severity
from .rules import (DATAFLOW_RULE_IDS, DEFAULT_RULES, LintContext,
                    LintRule, RULES_BY_ID, SELF_CHECK_RULE_IDS,
                    STRUCTURAL_RULE_IDS)


@dataclass
class LintReport:
    """All diagnostics the linter produced for one program."""

    program_name: str
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: Diagnostics dropped by ``# lint: ignore[...]`` pragmas.
    suppressed: int = 0

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics
                if d.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """No error-severity diagnostics (warnings are allowed)."""
        return not self.errors

    def by_rule(self, rule_id: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.rule == rule_id]

    def render(self, verbose: bool = True) -> str:
        suffix = (f", {self.suppressed} suppressed"
                  if self.suppressed else "")
        lines = [f"{self.program_name}: {len(self.errors)} error(s), "
                 f"{len(self.warnings)} warning(s){suffix}"]
        if verbose:
            lines.extend(d.render() for d in self.diagnostics)
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        return {"program": self.program_name,
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "suppressed": self.suppressed,
                "diagnostics": [d.to_dict() for d in self.diagnostics]}


class Linter:
    """Runs a configurable rule set over programs."""

    def __init__(self, rules: Optional[Sequence[LintRule]] = None,
                 dataflow: bool = True):
        selected = list(DEFAULT_RULES if rules is None else rules)
        if not dataflow:
            selected = [rule for rule in selected
                        if rule.rule_id not in DATAFLOW_RULE_IDS]
        self.rules: List[LintRule] = selected

    @classmethod
    def structural(cls) -> "Linter":
        """Only the structural (error-severity) self-check rules."""
        return cls([RULES_BY_ID[rid] for rid in STRUCTURAL_RULE_IDS])

    @classmethod
    def self_check(cls) -> "Linter":
        """The workload-generator gate: structural errors plus
        const-proven unreachable code (L011)."""
        return cls([RULES_BY_ID[rid] for rid in SELF_CHECK_RULE_IDS])

    def run(self, program: Program, path: Optional[str] = None,
            honor_ignores: bool = True,
            regions: Iterable[Tuple[int, int]] = ()) -> LintReport:
        """Lint *program*; *path* attaches source file/line locations
        (lines come from ``program.lines``, the assembler's map).
        *regions* are extra mapped ``(start, end)`` byte ranges (e.g.
        harness-premapped buffers) the memory-safety rules must treat
        as legal.

        With *honor_ignores* (the default), diagnostics at addresses
        carrying a ``# lint: ignore[...]`` pragma are dropped and
        counted in :attr:`LintReport.suppressed`.
        """
        ctx = LintContext(program, build_cfg(program),
                          regions=tuple(regions))
        report = LintReport(program.name)
        for rule in self.rules:
            report.diagnostics.extend(rule.check(ctx))
        # A diagnostic reached through several interprocedural contexts
        # (or several overlapping loops) is one finding, not many.
        seen = set()
        unique = []
        for d in report.diagnostics:
            key = (d.rule, d.addr, d.message)
            if key in seen:
                continue
            seen.add(key)
            unique.append(d)
        report.diagnostics = unique
        if honor_ignores and program.ignores:
            kept = []
            for d in report.diagnostics:
                rules = (program.ignores.get(d.addr)
                         if d.addr is not None else None)
                if rules is not None and ("*" in rules
                                          or d.rule in rules):
                    report.suppressed += 1
                else:
                    kept.append(d)
            report.diagnostics = kept
        if path is not None:
            report.diagnostics = [
                dataclasses.replace(
                    d, path=path,
                    line=(program.lines.get(d.addr)
                          if d.addr is not None else None))
                for d in report.diagnostics]
        # Stable order: errors before warnings before infos, and within
        # each severity band findings read in program (address) order in
        # both the text and ``--json`` outputs, independent of
        # which rule or calling context produced them first.
        report.diagnostics.sort(
            key=lambda d: (-d.severity.rank, d.addr is None, d.addr or 0,
                           d.rule, d.message))
        return report


def lint_program(program: Program,
                 rules: Optional[Sequence[LintRule]] = None,
                 dataflow: bool = True,
                 path: Optional[str] = None,
                 honor_ignores: bool = True,
                 regions: Iterable[Tuple[int, int]] = ()) -> LintReport:
    """Lint *program* with the default (or a custom) rule set."""
    return Linter(rules, dataflow=dataflow).run(
        program, path=path, honor_ignores=honor_ignores,
        regions=regions)
