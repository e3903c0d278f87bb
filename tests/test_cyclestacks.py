"""Cycle-stack construction and classification tests."""

import pytest

from repro.analysis.cyclestacks import (CLASS_COMPUTE, CLASS_FLUSH,
                                        CLASS_STALL, CycleStack,
                                        cycle_stack, per_symbol_stacks)
from repro.analysis.symbols import Granularity, Symbolizer
from repro.core.oracle import OracleProfiler
from repro.core.samples import Category
from repro.cpu.trace import replay
from tests.test_oracle import I1, LOAD, PROGRAM
from conftest import make_record


def _stack(**totals):
    return CycleStack({Category[k.upper()]: v for k, v in totals.items()})


def test_fractions_and_total():
    stack = _stack(execution=50.0, load_stall=50.0)
    assert stack.total == 100.0
    assert stack.fraction(Category.EXECUTION) == 0.5
    assert stack.fraction(Category.MISPREDICT) == 0.0


def test_normalized_sums_to_one():
    stack = _stack(execution=30.0, alu_stall=20.0, mispredict=50.0)
    assert sum(stack.normalized().values()) == pytest.approx(1.0)


def test_classification_rules():
    """Section 4: >50% committing = Compute; else >3% flushing = Flush;
    else Stall."""
    assert _stack(execution=60.0, load_stall=40.0).classify() == \
        CLASS_COMPUTE
    assert _stack(execution=40.0, load_stall=55.0,
                  mispredict=5.0).classify() == CLASS_FLUSH
    assert _stack(execution=40.0, load_stall=58.0,
                  mispredict=2.0).classify() == CLASS_STALL


def test_misc_flush_counts_toward_flush_class():
    stack = _stack(execution=40.0, alu_stall=50.0, misc_flush=10.0)
    assert stack.flush_fraction == pytest.approx(0.1)
    assert stack.classify() == CLASS_FLUSH


def test_empty_stack():
    stack = CycleStack()
    assert stack.total == 0.0
    assert stack.fraction(Category.EXECUTION) == 0.0
    assert stack.classify() == CLASS_STALL


def test_cycle_stack_from_oracle():
    oracle = OracleProfiler(PROGRAM)
    records = [make_record(0, committed=[(I1, False, False)]),
               make_record(1, rob_head=LOAD),
               make_record(2, rob_head=LOAD),
               make_record(3, committed=[(LOAD, False, False)])]
    replay(records, oracle)
    stack = cycle_stack(oracle.report)
    assert stack.total == pytest.approx(4.0)
    assert stack.totals[Category.LOAD_STALL] == pytest.approx(2.0)
    assert stack.totals[Category.EXECUTION] == pytest.approx(2.0)


def test_per_symbol_stacks_split_by_function():
    oracle = OracleProfiler(PROGRAM)
    records = [make_record(0, committed=[(I1, False, False)]),
               make_record(1, rob_head=LOAD)]
    replay(records, oracle)
    sym = Symbolizer(PROGRAM)
    stacks = per_symbol_stacks(oracle.report, sym, Granularity.FUNCTION)
    assert "f" in stacks
    assert stacks["f"].total == pytest.approx(2.0)


def test_per_symbol_stacks_instruction_granularity():
    oracle = OracleProfiler(PROGRAM)
    records = [make_record(0, committed=[(I1, False, False)]),
               make_record(1, rob_head=LOAD)]
    replay(records, oracle)
    sym = Symbolizer(PROGRAM)
    stacks = per_symbol_stacks(oracle.report, sym, Granularity.INSTRUCTION)
    assert stacks[I1].totals[Category.EXECUTION] == pytest.approx(1.0)
    assert stacks[LOAD].totals[Category.LOAD_STALL] == pytest.approx(1.0)
