"""Cycle stacks captured at commit (Figure 7 / Figure 13).

A cycle stack attributes every cycle of a run to one of the Section 3.1
categories (Execution, ALU/Load/Store stall, Front-end, Mispredict,
Misc. flush).  The stacks come straight out of the Oracle's categorised
attribution, and the paper's benchmark classification rule turns a stack
into a Compute / Flush / Stall class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Tuple

from ..core.oracle import OracleReport
from ..core.samples import Category
from .symbols import Granularity, Symbolizer

#: Display order of stack components (execute at the bottom).
STACK_ORDER: Tuple[Category, ...] = (
    Category.EXECUTION, Category.ALU_STALL, Category.LOAD_STALL,
    Category.STORE_STALL, Category.FRONTEND, Category.MISPREDICT,
    Category.MISC_FLUSH,
)

#: Benchmark classes of Figure 7.
CLASS_COMPUTE = "Compute"
CLASS_FLUSH = "Flush"
CLASS_STALL = "Stall"


@dataclass
class CycleStack:
    """Per-category cycle totals for one run (or one function)."""

    totals: Dict[Category, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return sum(self.totals.values())

    def fraction(self, category: Category) -> float:
        total = self.total
        if not total:
            return 0.0
        return self.totals.get(category, 0.0) / total

    def normalized(self) -> Dict[Category, float]:
        return {category: self.fraction(category)
                for category in STACK_ORDER}

    @property
    def flush_fraction(self) -> float:
        return (self.fraction(Category.MISPREDICT)
                + self.fraction(Category.MISC_FLUSH))

    def classify(self) -> str:
        """The paper's classification rule (Section 4)."""
        if self.fraction(Category.EXECUTION) > 0.50:
            return CLASS_COMPUTE
        if self.flush_fraction > 0.03:
            return CLASS_FLUSH
        return CLASS_STALL


def cycle_stack(oracle: OracleReport) -> CycleStack:
    """Whole-run cycle stack from the Oracle's attribution."""
    return CycleStack(dict(oracle.category_totals))


def per_symbol_stacks(oracle: OracleReport, symbolizer: Symbolizer,
                      granularity: Granularity = Granularity.FUNCTION
                      ) -> Dict[Hashable, CycleStack]:
    """Cycle stacks per symbol (Figure 13 shows these per function)."""
    table = symbolizer.table(granularity)
    stacks: Dict[Hashable, CycleStack] = {}
    for (addr, category), cycles in oracle.categorized.items():
        sym = table[addr]
        stack = stacks.setdefault(sym, CycleStack())
        stack.totals[category] = stack.totals.get(category, 0.0) + cycles
    return stacks
