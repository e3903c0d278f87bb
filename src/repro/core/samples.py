"""Common sample and cycle-category types shared by all profilers."""

from __future__ import annotations

import enum
from typing import List, Optional, Tuple

from ..isa.program import Program


class Category(enum.Enum):
    """Cycle categories used for cycle stacks (Section 3.1 / Figure 7)."""

    EXECUTION = "Execution"
    ALU_STALL = "ALU stall"
    LOAD_STALL = "Load stall"
    STORE_STALL = "Store stall"
    FRONTEND = "Front-end"
    MISPREDICT = "Mispredict"
    MISC_FLUSH = "Misc. flush"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class FlushKind(enum.Enum):
    """Fine-grained breakdown of pipeline-flush time.

    The paper groups these as "Misc. flush"/"Mispredict" in Figure 7 but
    notes that "TIP can easily support more fine-grained categories if
    necessary"; Oracle tracks them (the hardware TIP reports its 3-bit
    OIR flag, which cannot split page faults from ordering replays).
    """

    MISPREDICT = "mispredicted branch"
    CSR = "CSR/serializing commit"
    EXCEPTION = "precise exception"
    ORDERING = "memory-ordering replay"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Attribution of one cycle or sample: ``[(addr, fraction), ...]`` with the
#: fractions summing to 1.
Attribution = List[Tuple[int, float]]


class Sample:
    """One collected sample.

    ``interval`` is the number of cycles this sample represents (the time
    since the previous sample), ``weights`` the attribution produced by
    the profiler, and ``category`` the profiler's classification of the
    sampled cycle (``None`` for profilers that cannot classify).
    """

    __slots__ = ("cycle", "interval", "weights", "category")

    def __init__(self, cycle: int, interval: int, weights: Attribution,
                 category: Optional[Category] = None):
        self.cycle = cycle
        self.interval = interval
        self.weights = weights
        self.category = category

    def __repr__(self) -> str:
        return (f"<sample @{self.cycle} x{self.interval} "
                f"{[(hex(a), round(w, 3)) for a, w in self.weights]}>")


def stall_category(program: Program, addr: int) -> Category:
    """Classify a commit stall by the stalling instruction's type.

    This mirrors the paper's post-processing: "TIP uses the application
    binary to determine the instruction type and thereby understand if the
    oldest instruction is an ALU-instruction, a load, or a store."
    """
    inst = program.fetch(addr)
    if inst is None:
        return Category.ALU_STALL
    if inst.is_load:
        return Category.LOAD_STALL
    if inst.is_store:
        return Category.STORE_STALL
    return Category.ALU_STALL
