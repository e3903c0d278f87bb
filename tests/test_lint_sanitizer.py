"""Commit-trace sanitizer tests (repro.lint.sanitizer).

Each S-rule gets a hand-crafted violating record stream (via
``conftest.make_record`` or raw ``CycleRecord``) plus checks that real
machine runs and trace-file replays come out clean.
"""

import io

import pytest

from conftest import COUNT_LOOP, make_record
from repro.cpu.config import CoreConfig
from repro.cpu.machine import Machine
from repro.cpu.trace import CommittedInst, CycleRecord, HeadEntry
from repro.cpu.tracefile import TraceWriterV3, read_trace
from repro.isa.assembler import assemble
from repro.lint import TraceInvariantError, TraceSanitizer, sanitize_trace

STRAIGHT = """
.entry main
.func main
main:
    addi x1, x0, 1
    addi x2, x1, 2
    add  x3, x1, x2
    halt
"""


def _collect(records, program=None, **kwargs):
    sanitizer = TraceSanitizer(program=program, fail_fast=False, **kwargs)
    for record in records:
        sanitizer.on_cycle(record)
    return sanitizer


def _rules(sanitizer):
    return [d.rule for d in sanitizer.violations]


def _raw_record(cycle, commits, rob_head=None, rob_empty=None,
                banks=2, oldest_bank=0, head_banks=None):
    if head_banks is None:
        head_banks = [None] * banks
        if rob_head is not None:
            head_banks[oldest_bank] = HeadEntry(rob_head, False)
    return CycleRecord(
        cycle=cycle, committed=tuple(commits), rob_head=rob_head,
        rob_empty=rob_head is None if rob_empty is None else rob_empty,
        exception=None, exception_is_ordering=False, dispatched=(),
        dispatch_pc=None, fetch_pc=0, head_banks=tuple(head_banks),
        oldest_bank=oldest_bank)


# -- S001 monotone-cycle ------------------------------------------------------

def test_s001_cycle_gap():
    sanitizer = _collect([make_record(0), make_record(2)])
    assert _rules(sanitizer) == ["S001"]
    assert sanitizer.violations[0].cycle == 2


# -- S002 commit-width --------------------------------------------------------

def test_s002_too_many_commits():
    record = make_record(0, committed=[(0x10000, False, False),
                                       (0x10004, False, False),
                                       (0x10008, False, False)])
    sanitizer = _collect([record], commit_width=2)
    assert "S002" in _rules(sanitizer)


def test_s002_width_defaults_to_banks():
    record = make_record(0, committed=[(0x10000, False, False),
                                       (0x10004, False, False)], banks=2)
    assert _collect([record]).ok  # exactly the inferred width: fine


# -- S003 program-order -------------------------------------------------------

def test_s003_commit_outside_text():
    program = assemble(STRAIGHT, name="s003")
    record = make_record(0, committed=[(0xdead00, False, False)])
    sanitizer = _collect([record], program=program)
    assert "S003" in _rules(sanitizer)
    assert "outside" in sanitizer.violations[0].message


def test_s003_program_order_broken():
    program = assemble(STRAIGHT, name="s003")
    # addi at 0x10000 must be followed by 0x10004, not 0x10008.
    record = make_record(0, committed=[(0x10000, False, False),
                                       (0x10008, False, False)])
    sanitizer = _collect([record], program=program)
    assert "S003" in _rules(sanitizer)


def test_s003_halt_must_commit_last():
    program = assemble(STRAIGHT, name="s003")
    record = make_record(0, committed=[(0x1000c, False, False),
                                       (0x10000, False, False)])
    sanitizer = _collect([record], program=program)
    assert any(d.rule == "S003" and "halt" in d.message
               for d in sanitizer.violations)


def test_s003_branch_successors_allowed():
    program = assemble(COUNT_LOOP.format(n=4), name="s003")
    loop = program.labels["loop"]
    # Taken back edge and fall-through are both legal in one cycle.
    taken = make_record(0, committed=[(loop, False, False),
                                      (loop + 4, True, False),
                                      (loop, False, False)], banks=4)
    assert _collect([taken], program=program, banks=4).ok


# -- S004 bank-rotation -------------------------------------------------------

def test_s004_banks_must_rotate():
    commits = [CommittedInst(0x10000, 0, False, False),
               CommittedInst(0x10004, 0, False, False)]  # bank repeats
    sanitizer = _collect([_raw_record(0, commits)])
    assert "S004" in _rules(sanitizer)


# -- S005 flush-drain ---------------------------------------------------------

def test_s005_flush_not_last():
    record = make_record(0, committed=[(0x10000, False, True),
                                       (0x10004, False, False)])
    sanitizer = _collect([record])
    assert "S005" in _rules(sanitizer)


def test_s005_flush_must_empty_rob():
    commits = [CommittedInst(0x10000, 0, False, True)]
    record = _raw_record(0, commits, rob_head=0x10004)
    sanitizer = _collect([record])
    assert "S005" in _rules(sanitizer)


def test_s005_no_commit_in_drain_cycle():
    flush = make_record(0, committed=[(0x10000, False, True)])
    leak = make_record(1, committed=[(0x10004, False, False)])
    sanitizer = _collect([flush, leak])
    assert "S005" in _rules(sanitizer)
    assert sanitizer.violations[0].cycle == 1


# -- S006 exception-exclusive -------------------------------------------------

def test_s006_exception_fires_alone():
    record = make_record(0, committed=[(0x10000, False, False)],
                         exception=0x10004)
    sanitizer = _collect([record])
    assert "S006" in _rules(sanitizer)


def test_s006_exception_squashes_rob():
    record = make_record(0, rob_head=0x10008, exception=0x10004)
    sanitizer = _collect([record])
    assert "S006" in _rules(sanitizer)


def test_s006_ordering_flag_needs_exception():
    record = make_record(0, exception=None, exception_is_ordering=True)
    sanitizer = _collect([record])
    assert "S006" in _rules(sanitizer)


# -- S007 head-consistency ----------------------------------------------------

def test_s007_bank_count_mismatch():
    sanitizer = _collect([make_record(0, banks=2)], banks=4)
    assert "S007" in _rules(sanitizer)


def test_s007_empty_flag_disagrees_with_head():
    record = _raw_record(0, [], rob_head=0x10000, rob_empty=True)
    sanitizer = _collect([record])
    assert "S007" in _rules(sanitizer)


def test_s007_head_bank_disagrees_with_rob_head():
    head_banks = [HeadEntry(0x10008, False), None]
    record = _raw_record(0, [], rob_head=0x10000, rob_empty=False,
                         head_banks=head_banks)
    sanitizer = _collect([record])
    assert "S007" in _rules(sanitizer)


# -- S008 flag-consistency ----------------------------------------------------

def test_s008_mispredict_flag_on_non_control():
    program = assemble(STRAIGHT, name="s008")
    record = make_record(0, committed=[(0x10000, True, False)])
    sanitizer = _collect([record], program=program)
    assert "S008" in _rules(sanitizer)


def test_s008_flush_flag_disagrees_with_opcode():
    program = assemble(STRAIGHT, name="s008")
    record = make_record(0, committed=[(0x10000, False, True)])
    sanitizer = _collect([record], program=program)
    assert "S008" in _rules(sanitizer)


# -- fail-fast and reporting --------------------------------------------------

def test_fail_fast_raises_with_cycle_number():
    sanitizer = TraceSanitizer()  # fail_fast by default
    sanitizer.on_cycle(make_record(7))
    with pytest.raises(TraceInvariantError) as excinfo:
        sanitizer.on_cycle(make_record(9))
    assert "S001" in str(excinfo.value)
    assert "cycle 9" in str(excinfo.value)
    assert excinfo.value.diagnostic.rule == "S001"


def test_summary_and_report():
    sanitizer = _collect([make_record(0), make_record(1)])
    assert sanitizer.ok
    assert "2 cycles" in sanitizer.summary()
    assert "clean" in sanitizer.summary()

    bad = _collect([make_record(0), make_record(5)])
    assert not bad.ok
    assert "1 violation(s)" in bad.report()
    assert "S001" in bad.report()


# -- real machine runs are clean ----------------------------------------------

def _run_sanitized(source, config=None, max_cycles=200_000):
    program = assemble(source, name="sanitized")
    machine = Machine(program, config)
    sanitizer = TraceSanitizer.for_machine(machine)
    machine.attach(sanitizer)
    machine.run(max_cycles)
    return sanitizer


def test_machine_run_is_clean():
    sanitizer = _run_sanitized(COUNT_LOOP.format(n=500))
    assert sanitizer.ok
    assert sanitizer.cycles_checked > 500
    assert sanitizer.commits_checked > 1000


def test_machine_run_is_clean_tiny_config():
    sanitizer = _run_sanitized(COUNT_LOOP.format(n=200),
                               CoreConfig.tiny())
    assert sanitizer.ok


def test_flushing_program_is_clean():
    sanitizer = _run_sanitized("""
.entry main
.func main
main:
    addi x1, x0, 20
loop:
    frflags x7
    addi x1, x1, -1
    bne  x1, x0, loop
    halt
""")
    assert sanitizer.ok
    assert sanitizer.commits_checked > 40


# -- trace-file replay --------------------------------------------------------

def test_recorded_trace_sanitizes_clean():
    program = assemble(COUNT_LOOP.format(n=300), name="roundtrip")
    machine = Machine(program)
    buffer = io.BytesIO()
    machine.attach(TraceWriterV3(buffer, machine.config.rob_banks))
    machine.run(100_000)

    records = list(read_trace(io.BytesIO(buffer.getvalue())))
    sanitizer = sanitize_trace(records, program=machine.image)
    assert sanitizer.ok
    assert sanitizer.cycles_checked == len(records)
