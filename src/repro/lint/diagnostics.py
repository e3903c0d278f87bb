"""Structured lint diagnostics.

Every linter rule and every sanitizer invariant emits
:class:`Diagnostic` records: a stable rule id, a severity, the program
location (address + function) or trace location (cycle), a message and
an optional machine-applicable fix hint.  Rendering goes through the
toolkit-wide :func:`repro.analysis.report.format_diag` helper so lint
output, sanitizer reports and test assertions all share one format.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..analysis.report import format_diag


class Severity(enum.Enum):
    """Diagnostic severity, ordered: ERROR > WARNING > INFO."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 2, "warning": 1, "info": 0}[self.value]

    def __lt__(self, other: "Severity") -> bool:
        return self.rank < other.rank


@dataclass(frozen=True)
class FixHint:
    """A machine-applicable fix: what to do, where, and a rendering.

    ``action`` is the transformation family the optimizer dispatches
    on: ``"nop"`` (substitute flush instructions with ``nop``),
    ``"hoist"`` (move a loop-invariant instruction to a preheader),
    ``"delete"`` (remove a dead instruction), ``"prune"`` (remove a
    const-proven unreachable block), or ``"manual"`` (advice only).
    ``addrs`` are the instruction addresses the fix touches and
    ``header`` the loop-header address for hoists.  The legality of
    applying the hint is *not* implied -- ``repro.opt`` re-proves it
    from the dataflow facts before rewriting anything.
    """

    action: str
    text: str
    addrs: Tuple[int, ...] = ()
    header: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"action": self.action, "text": self.text}
        if self.addrs:
            out["addrs"] = [f"{addr:#x}" for addr in self.addrs]
        if self.header is not None:
            out["header"] = f"{self.header:#x}"
        return out


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a rule id plus location, message and fix hint."""

    rule: str
    severity: Severity
    message: str
    addr: Optional[int] = None
    function: Optional[str] = None
    cycle: Optional[int] = None
    fix_hint: Optional[str] = None
    path: Optional[str] = None
    line: Optional[int] = None
    fix: Optional[FixHint] = None

    @property
    def is_error(self) -> bool:
        return self.severity is Severity.ERROR

    def render(self) -> str:
        return format_diag(self.severity.value, self.rule, self.message,
                           addr=self.addr, function=self.function,
                           cycle=self.cycle, hint=self.fix_hint,
                           path=self.path, line=self.line)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly form (for ``repro lint --json`` and CI)."""
        out: Dict[str, Any] = {
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
        }
        if self.path is not None:
            out["path"] = self.path
        if self.line is not None:
            out["line"] = self.line
        if self.addr is not None:
            out["addr"] = f"{self.addr:#x}"
        if self.function is not None:
            out["function"] = self.function
        if self.cycle is not None:
            out["cycle"] = self.cycle
        if self.fix_hint is not None:
            out["fix_hint"] = self.fix_hint
        if self.fix is not None:
            out["fix"] = self.fix.to_dict()
        return out

    def __str__(self) -> str:
        return self.render()
