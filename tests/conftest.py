"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import pytest

from repro.cpu.config import CoreConfig
from repro.cpu.machine import Machine
from repro.cpu.trace import CommittedInst, CycleRecord, TraceCollector
from repro.fastpath import CycleBlock
from repro.isa.assembler import assemble


def make_record(cycle: int,
                committed: Sequence[Tuple[int, bool, bool]] = (),
                rob_head: Optional[int] = None,
                exception: Optional[int] = None,
                exception_is_ordering: bool = False,
                dispatched: Sequence[int] = (),
                dispatch_pc: Optional[int] = None,
                fetch_pc: int = 0,
                banks: int = 2) -> CycleRecord:
    """Build a hand-crafted trace record.

    *committed* is a sequence of ``(addr, mispredicted, flushes)`` tuples
    in program order; their banks rotate from 0 over *banks*.
    """
    commits = tuple(CommittedInst(addr, i % banks, mispredicted, flushes)
                    for i, (addr, mispredicted, flushes)
                    in enumerate(committed))
    return CycleRecord(
        cycle=cycle, committed=commits, rob_head=rob_head,
        rob_empty=rob_head is None, exception=exception,
        exception_is_ordering=exception_is_ordering,
        dispatched=tuple(dispatched), dispatch_pc=dispatch_pc,
        fetch_pc=fetch_pc, oldest_bank=0)


def feed_records(observer, records: Sequence[CycleRecord],
                 banks: int = 2) -> None:
    """Hand *records* to *observer* through ``on_block``, each as a
    one-record ``CycleBlock.from_runs`` block of *banks* banks."""
    for record in records:
        observer.on_block(CycleBlock.from_runs([(record, 1)], banks))


def run_asm(source: str, config: Optional[CoreConfig] = None,
            premapped: Optional[List[Tuple[int, int]]] = None,
            max_cycles: int = 500_000,
            collect_trace: bool = True):
    """Assemble, boot and run a program; return (machine, collector)."""
    program = assemble(source, name="test")
    machine = Machine(program, config or CoreConfig.boom_4wide(),
                      premapped_data=premapped)
    collector = TraceCollector() if collect_trace else None
    if collector is not None:
        machine.attach(collector)
    machine.run(max_cycles)
    return machine, collector


@pytest.fixture
def tiny_config() -> CoreConfig:
    return CoreConfig.tiny()


COUNT_LOOP = """
.entry main
.func main
main:
    addi x1, x0, 0
    addi x2, x0, {n}
loop:
    addi x1, x1, 1
    bne  x1, x2, loop
    sw   x1, 0x3000(x0)
    halt
"""


@pytest.fixture
def count_loop_source():
    return COUNT_LOOP


#: Every field of an :class:`~repro.core.oracle.OracleReport`.
ORACLE_FIELDS = ("profile", "categorized", "category_totals",
                 "flush_breakdown", "watched", "intervals", "total_cycles")


def oracle_tables(report) -> dict:
    """All fields of an Oracle report, for exact (``==``) comparison."""
    return {name: getattr(report, name) for name in ORACLE_FIELDS}
