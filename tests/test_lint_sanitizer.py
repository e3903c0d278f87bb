"""Commit-trace sanitizer tests (repro.lint.sanitizer).

Each S-rule gets a hand-crafted violating record stream (via
``conftest.make_record`` or raw ``CycleRecord``), fed as one-record
blocks, plus violations where blocks meet or inside a stall run,
checks that real machine runs and trace-file replays come out clean,
and the pinned violation streams of the golden trace replayed against
the wrong programs.
"""

import hashlib
import io
import os

import pytest

from conftest import COUNT_LOOP, feed_records, make_record
from repro.cpu.config import CoreConfig
from repro.cpu.machine import Machine
from repro.cpu.trace import CommittedInst, CycleRecord
from repro.cpu.tracefile import TraceWriterV3, read_trace
from repro.fastpath import CycleBlock, replay_blocks
from repro.isa.assembler import assemble
from repro.kernel import Kernel
from repro.lint import TraceInvariantError, TraceSanitizer, sanitize_trace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

STRAIGHT = """
.entry main
.func main
main:
    addi x1, x0, 1
    addi x2, x1, 2
    add  x3, x1, x2
    halt
"""


def _collect(records, program=None, trace_banks=2, **kwargs):
    """A non-failing sanitizer fed *records* as one-record blocks of
    *trace_banks* banks."""
    sanitizer = TraceSanitizer(program=program, fail_fast=False, **kwargs)
    feed_records(sanitizer, records, trace_banks)
    return sanitizer


def _rules(sanitizer):
    return [d.rule for d in sanitizer.violations]


def _raw_record(cycle, commits, rob_head=None, rob_empty=None,
                oldest_bank=0):
    return CycleRecord(
        cycle=cycle, committed=tuple(commits), rob_head=rob_head,
        rob_empty=rob_head is None if rob_empty is None else rob_empty,
        exception=None, exception_is_ordering=False, dispatched=(),
        dispatch_pc=None, fetch_pc=0, oldest_bank=oldest_bank)


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
    assert _collect([taken], program=program, banks=4,
                    trace_banks=4).ok


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
    sanitizer = _collect([make_record(0, banks=2)], banks=4,
                         trace_banks=2)
    assert "S007" in _rules(sanitizer)


def test_s007_empty_flag_disagrees_with_head():
    record = _raw_record(0, [], rob_head=0x10000, rob_empty=True)
    sanitizer = _collect([record])
    assert "S007" in _rules(sanitizer)


def test_s007_oldest_bank_out_of_range():
    record = _raw_record(0, [], rob_head=0x10000, oldest_bank=2)
    sanitizer = _collect([record])
    assert _rules(sanitizer) == ["S007"]
    assert "oldest_bank 2 out of range" in sanitizer.violations[0].message


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
    feed_records(sanitizer, [make_record(7)])
    with pytest.raises(TraceInvariantError) as excinfo:
        feed_records(sanitizer, [make_record(9)])
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
    sanitizer = sanitize_trace(buffer.getvalue(), program=machine.image)
    assert sanitizer.ok
    assert sanitizer.cycles_checked == len(records)


# -- violations where blocks meet and inside stall runs -----------------------

STALL_ROW = make_record(0, rob_head=0x10008)


def test_s001_gap_between_blocks():
    sanitizer = TraceSanitizer(fail_fast=False)
    sanitizer.on_block(CycleBlock.from_runs([(STALL_ROW, 4)], 2))
    late = CycleBlock.from_runs([(make_record(6, rob_head=0x10008), 3)], 2)
    sanitizer.on_block(late)
    assert _rules(sanitizer) == ["S001"]
    assert sanitizer.violations[0].cycle == 6
    assert "3 was followed by 6" in sanitizer.violations[0].message
    assert sanitizer.cycles_checked == 7


def test_s005_flush_ends_one_block_and_next_block_commits():
    flush = make_record(2, committed=[(0x10000, False, True)])
    first = CycleBlock.from_runs([(STALL_ROW, 2), (flush, 1)], 2)
    leak = make_record(3, committed=[(0x10004, False, False)])
    sanitizer = TraceSanitizer(fail_fast=False)
    sanitizer.on_block(first)
    sanitizer.on_block(CycleBlock.from_runs([(leak, 1)], 2))
    assert _rules(sanitizer) == ["S005"]
    assert sanitizer.violations[0].cycle == 3
    assert "must be drained" in sanitizer.violations[0].message


def test_s007_block_banks_differ_from_configured():
    sanitizer = TraceSanitizer(banks=4, fail_fast=False)
    sanitizer.on_block(CycleBlock.from_runs([(STALL_ROW, 3)], 2))
    assert _rules(sanitizer) == ["S007"] * 3
    assert [d.cycle for d in sanitizer.violations] == [0, 1, 2]
    assert all(d.message == "2 head banks reported, expected 4"
               for d in sanitizer.violations)


def test_s006_row_inside_a_stall_run():
    fault = make_record(0, rob_head=0x10008, exception=0x10004)
    block = CycleBlock.from_runs([(STALL_ROW, 3), (fault, 1),
                                  (STALL_ROW, 3)], 2)
    sanitizer = TraceSanitizer(fail_fast=False)
    sanitizer.on_block(block)
    assert _rules(sanitizer) == ["S006"]
    assert sanitizer.violations[0].cycle == 3
    assert "must squash the ROB" in sanitizer.violations[0].message
    assert sanitizer.cycles_checked == 7


# -- pinned violation streams -------------------------------------------------

#: The golden trace replayed against programs that did not produce it:
#: (program, commit width) -> (violations, sha256 of the newline-joined
#: rendered diagnostics).  Pins every rule id, message and their order.
WRONG_PROGRAM_STREAMS = [
    ("dead_store", None, 1685,
     "baa8b5c0e1e295dee8911b92ff8bb76f1f1dfd34275dcf53c2003740bcc5baf4"),
    ("dead_store", 1, 2181,
     "569a5fb87018f7266fcd88993f1f03836bc52bfb3f98401c3e4133acd1f4dda2"),
    ("csr_hotloop", None, 1366,
     "92ca7298882ed128108889eca91d142ea21ceb5290843e1fec376d66e38f8ae0"),
    ("csr_hotloop", 1, 1862,
     "210fb916592b71e436724c733a9ba4e56ce75431751b08d05b2a28ec156fc1d8"),
    ("spin_wait", None, 1601,
     "cfa226a7d9d0d30fdca83645471e7ddece6d903261a292439c171667b238ec3f"),
    ("spin_wait", 1, 2097,
     "238f8b14aaadc31a1f9106a55bd14093f2c575b2c6d79345d3a5a8af75683a11"),
]


@pytest.mark.parametrize("name,width,count,digest", WRONG_PROGRAM_STREAMS)
def test_wrong_program_violation_stream_is_pinned(name, width, count,
                                                  digest):
    with open(os.path.join(ROOT, "examples", "asm", f"{name}.s")) as f:
        image = Kernel().link(assemble(f.read(), name=f"{name}.s"))
    sanitizer = TraceSanitizer(program=image, commit_width=width,
                               fail_fast=False)
    replay_blocks(os.path.join(ROOT, "tests", "data", "golden.tiptrace"),
                  sanitizer)
    rendered = "\n".join(d.render() for d in sanitizer.violations)
    assert len(sanitizer.violations) == count
    assert hashlib.sha256(rendered.encode()).hexdigest() == digest
    assert (sanitizer.cycles_checked, sanitizer.commits_checked) == \
        (4131, 2138)
