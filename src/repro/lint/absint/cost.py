"""Static per-instruction cycle-cost model.

A deliberately *first-order* expectation of where time goes, built
entirely from the abstract interpretation:

* issue latency from the opcode table;
* memory cost tiered by the access's proven footprint -- the abstract
  address interval tells us how much memory the instruction can sweep,
  which picks the cache level it plausibly hits;
* execution weight from proven loop trip counts (bounded loops use the
  proof, unbounded loops a fixed default) multiplied through the call
  graph;
* a small fixed charge for flush-on-commit instructions covering the
  refill only.

The model intentionally *under*-costs second-order effects (flush
serialization, bandwidth, dependency stalls): when TIP's dynamic
attribution gives an instruction far more time than this model does,
that gap *is* the signal ``repro annotate`` surfaces -- the paper's
Section 6 Imagick flush pair being the golden case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ...isa.disasm import format_instruction
from ...mem.hierarchy import MemoryConfig
from ..context import LintContext
from .domain import AbsVal

#: Iterations assumed for a loop the engine cannot bound.
DEFAULT_TRIPS = 100
#: Fixed cost charged to a flush-on-commit instruction (the front-end
#: refill only; the real drain cost is a second-order effect the model
#: deliberately leaves out).
FLUSH_COST = 4.0
#: Cap on any execution-count weight (keeps recursion and deep nests
#: finite).
MAX_WEIGHT = 1e12


@dataclass
class CostLine:
    """One instruction's static expectation."""

    addr: int
    function: str
    text: str
    #: Expected cycles for a single execution.
    per_exec: float
    #: Expected number of executions (trip counts x call-graph weight).
    weight: float

    @property
    def total(self) -> float:
        return self.per_exec * self.weight


@dataclass
class CostReport:
    """The whole program's static cost expectation."""

    lines: List[CostLine] = field(default_factory=list)

    @property
    def total(self) -> float:
        return sum(line.total for line in self.lines)

    def shares(self) -> Dict[int, float]:
        """Instruction address -> expected share of total cycles."""
        total = self.total
        if total <= 0:
            return {line.addr: 0.0 for line in self.lines}
        return {line.addr: line.total / total for line in self.lines}

    def render(self, top: Optional[int] = None) -> str:
        total = self.total
        rows = sorted(self.lines, key=lambda line: (-line.total, line.addr))
        if top is not None:
            rows = rows[:top]
        out = [f"static cost model: {total:.0f} expected cycles over "
               f"{len(self.lines)} instructions",
               f"{'addr':>10}  {'share':>6}  {'cycles':>12}  "
               f"{'execs':>10}  {'function':<14} instruction"]
        for line in rows:
            share = line.total / total if total > 0 else 0.0
            out.append(f"{line.addr:#10x}  {share:6.1%}  "
                       f"{line.total:12.0f}  {line.weight:10.0f}  "
                       f"{line.function:<14} {line.text}")
        return "\n".join(out)

    def to_dict(self) -> dict:
        return {
            "total_cycles": self.total,
            "lines": [{"addr": line.addr, "function": line.function,
                       "text": line.text, "per_exec": line.per_exec,
                       "weight": line.weight, "total": line.total}
                      for line in sorted(self.lines,
                                         key=lambda row: row.addr)],
        }


def _memory_cost(value: AbsVal, size: int, mem: MemoryConfig) -> float:
    """Cache-tier cost from the access's proven footprint: an access
    sweeping no more than a cache level's capacity is costed at that
    level's hit latency."""
    if value.lo == float("-inf") or value.hi == float("inf"):
        return float(mem.l1d_latency)  # unknown: optimistic baseline
    span = value.hi - value.lo + size
    if span <= mem.l1d_size:
        return float(mem.l1d_latency)
    if span <= mem.l2_size:
        return float(mem.l2_latency)
    if span <= mem.llc_size:
        return float(mem.llc_latency)
    return float(mem.dram_latency)


def static_cost_report(ctx: LintContext,
                       mem: Optional[MemoryConfig] = None) -> CostReport:
    """Build the static cost expectation for *ctx*'s program."""
    mem = mem or MemoryConfig()
    result = ctx.absint()
    cfg = ctx.cfg

    # Merged natural-loop bodies per (function, header).
    bodies: Dict[Tuple[str, int], set] = {}
    for loop in cfg.loops:
        bodies.setdefault((loop.function, loop.header),
                          set()).update(loop.body)

    def block_weight(function: str, index: int) -> float:
        weight = 1.0
        for (fn, header), body in bodies.items():
            if fn != function or index not in body:
                continue
            trips = result.trip_bounds.get((fn, header), DEFAULT_TRIPS)
            weight = min(weight * max(trips, 1), MAX_WEIGHT)
        return weight

    # Function weights: expected call counts through the call graph.
    fn_weight: Dict[str, float] = {}
    entry_block = cfg.block_of(ctx.program.entry)
    if entry_block is not None:
        fn_weight[entry_block.function] = 1.0
    entry_weight = dict(fn_weight)
    for _ in range(10):  # bounded rounds; recursion saturates at the cap
        updated = dict(entry_weight)
        for function, weight in fn_weight.items():
            for index in cfg.functions.get(function, ()):
                block = cfg.blocks[index]
                term = block.terminator
                if not (term.is_call and not term.is_jump):
                    continue
                callee = ctx.program.function_of(term.imm)
                if callee is None:
                    continue
                contribution = min(
                    weight * block_weight(function, index), MAX_WEIGHT)
                updated[callee.name] = min(
                    updated.get(callee.name, 0.0) + contribution,
                    MAX_WEIGHT)
        if updated == fn_weight:
            break
        fn_weight = updated

    report = CostReport()
    for block in cfg.blocks:
        if block.index not in cfg.reachable:
            continue
        base = fn_weight.get(block.function, 1.0)
        weight = min(base * block_weight(block.function, block.index),
                     MAX_WEIGHT)
        for inst in block.instructions:
            per_exec = float(inst.latency)
            if inst.is_mem:
                access = result.accesses.get(inst.addr)
                value = access.value if access is not None else AbsVal()
                per_exec += _memory_cost(value, 8, mem)
            if inst.flushes_on_commit:
                per_exec += FLUSH_COST
            report.lines.append(CostLine(
                addr=inst.addr, function=block.function,
                text=format_instruction(inst), per_exec=per_exec,
                weight=weight))
    report.lines.sort(key=lambda line: line.addr)
    return report
