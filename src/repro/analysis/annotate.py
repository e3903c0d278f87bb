"""Static-vs-dynamic instruction annotation (``repro annotate``).

The abstract interpreter's cost model predicts where a program *should*
spend its cycles from the text alone: instruction latencies, provable
memory footprints and loop trip bounds.  A TIP profile measures where
the cycles actually went.  Annotating one against the other turns the
two attributions into a diagnosis: instructions whose dynamic share
far exceeds their static expectation are exactly the ones suffering a
microarchitectural pathology the static model cannot see -- pipeline
flush trains, cache-hostile strides, serialization.

That is the Section 6 workflow in miniature: on ``imagick-orig`` the
flush-heavy kernel lines light up as divergent, and after the
``imagick-opt`` rewrite the same report comes back clean.

An instruction is flagged *divergent* when

    dynamic > max(factor * static, static + margin)

with ``factor = 2.0`` and ``margin = 0.02`` by default: the dynamic
share must beat the static expectation both multiplicatively (to
ignore noise on cold instructions) and additively (to ignore tiny
absolute excesses on instructions near zero).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from ..isa.disasm import format_instruction
from ..isa.program import Program
from ..lint.absint.cost import CostReport, static_cost_report
from ..lint.cfg import build_cfg
from ..lint.context import LintContext

#: Default multiplicative slack before a line counts as divergent.
DEFAULT_FACTOR = 2.0
#: Default additive slack (absolute share) before a line counts.
DEFAULT_MARGIN = 0.02


@dataclass(frozen=True)
class AnnotatedLine:
    """One instruction's static expectation next to its measured share."""

    addr: int
    function: str
    text: str
    static_share: float
    dynamic_share: float
    divergent: bool

    @property
    def excess(self) -> float:
        """How far the measurement overshoots the expectation."""
        return self.dynamic_share - self.static_share

    def to_dict(self) -> dict:
        return {
            "addr": self.addr,
            "function": self.function,
            "text": self.text,
            "static_share": self.static_share,
            "dynamic_share": self.dynamic_share,
            "divergent": self.divergent,
        }


@dataclass
class AnnotateReport:
    """Side-by-side static/dynamic attribution for one program."""

    target: str
    policy: str
    factor: float = DEFAULT_FACTOR
    margin: float = DEFAULT_MARGIN
    lines: List[AnnotatedLine] = field(default_factory=list)

    @property
    def divergent(self) -> List[AnnotatedLine]:
        """The flagged lines, largest overshoot first."""
        flagged = [line for line in self.lines if line.divergent]
        return sorted(flagged, key=lambda line: (-line.excess, line.addr))

    def render(self, top: Optional[int] = None) -> str:
        rows = sorted(self.lines,
                      key=lambda line: (-line.dynamic_share, line.addr))
        if top is not None:
            rows = rows[:top]
        flagged = len(self.divergent)
        out = [f"{self.target}: static vs {self.policy} attribution, "
               f"{flagged} divergent instruction(s)",
               f"{'addr':>10}  {'static':>7}  {'dynamic':>7}  "
               f"{'':>2}  instruction"]
        for line in rows:
            mark = "!!" if line.divergent else ""
            out.append(f"{line.addr:#10x}  {line.static_share:6.1%}  "
                       f"{line.dynamic_share:6.1%}  {mark:>2}  "
                       f"{line.function}: {line.text}")
        return "\n".join(out)

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "policy": self.policy,
            "factor": self.factor,
            "margin": self.margin,
            "divergent": [line.addr for line in self.divergent],
            "lines": [line.to_dict()
                      for line in sorted(self.lines,
                                         key=lambda row: row.addr)],
        }


def annotate_profile(program: Program,
                     profile: Dict[Hashable, float],
                     target: str = "program",
                     policy: str = "TIP",
                     regions: Tuple[Tuple[int, int], ...] = (),
                     static: Optional[CostReport] = None,
                     factor: float = DEFAULT_FACTOR,
                     margin: float = DEFAULT_MARGIN) -> AnnotateReport:
    """Annotate a measured instruction-level *profile* against the
    static cost model's expectation for *program*.

    *profile* maps instruction addresses to normalized time shares (the
    shape of :meth:`ExperimentResult.profile` at instruction
    granularity); non-address keys (off-text time) are ignored.  Pass
    *static* to reuse an already-built :class:`CostReport`.
    """
    if static is None:
        ctx = LintContext(program, build_cfg(program),
                          regions=tuple(regions))
        static = static_cost_report(ctx)
    static_shares = static.shares()
    functions = {line.addr: line.function for line in static.lines}
    texts = {line.addr: line.text for line in static.lines}

    dynamic: Dict[int, float] = {}
    for sym, share in profile.items():
        if isinstance(sym, int) and sym in program:
            dynamic[sym] = dynamic.get(sym, 0.0) + share

    report = AnnotateReport(target=target, policy=policy,
                            factor=factor, margin=margin)
    for addr in sorted(set(static_shares) | set(dynamic)):
        expected = static_shares.get(addr, 0.0)
        measured = dynamic.get(addr, 0.0)
        text = texts.get(addr)
        if text is None:
            inst = program.fetch(addr)
            text = format_instruction(inst) if inst else "?"
        function = functions.get(addr)
        if function is None:
            symbol = program.function_of(addr)
            function = symbol.name if symbol else "?"
        flagged = measured > max(factor * expected, expected + margin)
        report.lines.append(AnnotatedLine(
            addr=addr, function=function, text=text,
            static_share=expected, dynamic_share=measured,
            divergent=flagged))
    return report
