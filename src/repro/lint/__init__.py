"""Static program linter and dynamic commit-trace sanitizer.

Two analysis layers over the same invariants the profilers depend on,
a static linter (the first two modules below) and a dynamic sanitizer:

* :mod:`repro.lint.cfg` + :mod:`repro.lint.dataflow` +
  :mod:`repro.lint.rules` -- a control-flow graph over
  :class:`~repro.isa.program.Program` text, a worklist dataflow engine
  (reaching definitions, liveness, definite assignment, conditional
  constants, dominators/loop nesting) and rule-based static checks: the
  syntactic Imagick flush-in-loop anti-pattern of Section 6 (L001) and
  its semantic, dataflow-proven generalisation (L012), unreachable
  code, uninitialized reads, dead stores, loops with no time-driven
  exit, ...;
* :mod:`repro.lint.absint` -- an interprocedural abstract
  interpretation (intervals x congruence x stack tracking with
  per-function summaries) behind the memory-safety / stack-discipline
  rules L014..L019 and the static cycle-cost model of
  ``repro lint --cost`` / ``repro annotate``;
* :mod:`repro.lint.sanitizer` -- a :class:`~repro.cpu.trace.TraceObserver`
  that validates every cycle of the commit-stage trace against the
  commit invariants (program order, commit width, flush-drain,
  bank rotation) and fails fast with a cycle-numbered report.

Entry points: :func:`lint_program`, :class:`TraceSanitizer`, and the
CLI (``repro lint``, ``--sanitize``).
"""

from .absint import (AbsintResult, AbsState, AbsVal,
                     AbstractInterpreter, CostReport, FunctionSummary,
                     analyze_program, static_cost_report)
from .cfg import BasicBlock, ControlFlowGraph, Loop, build_cfg
from .dataflow import (ALL_REGS, BACKWARD, BlockState,
                       ConditionalConstants, DataflowAnalysis,
                       DefiniteAssignment, DominatorTree, ENTRY_DEF,
                       FORWARD, Liveness, LoopNest, PreheaderSite,
                       ReachingDefinitions, loop_invariant_addrs,
                       preheader_site, solve)
from .diagnostics import Diagnostic, FixHint, Severity
from .linter import Linter, LintReport, lint_program
from .rules import (ABSINT_RULE_IDS, DATAFLOW_RULE_IDS, DEFAULT_RULES,
                    LintContext, LintRule, RULES_BY_ID,
                    SELF_CHECK_RULE_IDS, STRUCTURAL_RULE_IDS)
from .sanitizer import TraceInvariantError, TraceSanitizer, sanitize_trace

__all__ = [
    "AbsintResult", "AbsState", "AbsVal", "AbstractInterpreter",
    "CostReport", "FunctionSummary", "analyze_program",
    "static_cost_report",
    "BasicBlock", "ControlFlowGraph", "Loop", "build_cfg",
    "ALL_REGS", "BACKWARD", "BlockState", "ConditionalConstants",
    "DataflowAnalysis", "DefiniteAssignment", "DominatorTree",
    "ENTRY_DEF", "FORWARD", "Liveness", "LoopNest", "PreheaderSite",
    "ReachingDefinitions", "loop_invariant_addrs", "preheader_site",
    "solve",
    "Diagnostic", "FixHint", "Severity",
    "Linter", "LintReport", "lint_program",
    "ABSINT_RULE_IDS",
    "DATAFLOW_RULE_IDS", "DEFAULT_RULES", "LintContext", "LintRule",
    "RULES_BY_ID", "SELF_CHECK_RULE_IDS", "STRUCTURAL_RULE_IDS",
    "TraceInvariantError", "TraceSanitizer", "sanitize_trace",
]
