"""Trace record and collector tests, plus trace invariants on real runs."""

import pytest

from repro.cpu.trace import CommittedInst, TraceCollector, replay
from conftest import make_record, run_asm


def test_collector_stores_records():
    collector = TraceCollector()
    records = [make_record(0), make_record(1)]
    replay(records, collector)
    assert len(collector) == 2
    assert collector.final_cycle == 1
    assert [r.cycle for r in collector] == [0, 1]


def test_replay_empty():
    collector = TraceCollector()
    replay([], collector)
    assert collector.final_cycle == 0


def test_committed_inst_repr_flags():
    inst = CommittedInst(0x1000, 0, True, False)
    assert "M" in repr(inst)


@pytest.fixture(scope="module")
def loop_trace():
    _, collector = run_asm("""
    .func main
        addi x1, x0, 0
        addi x2, x0, 200
    loop:
        lw   x3, 0x2000(x1)
        add  x4, x4, x3
        addi x1, x1, 8
        andi x1, x1, 1023
        addi x2, x2, -1
        bne  x2, x0, loop
        frflags x5
        halt
    """, premapped=[(0x2000, 0x2400)])
    return collector


def test_invariant_commits_in_program_order(loop_trace):
    for record in loop_trace.records:
        banks = [c.bank for c in record.committed]
        assert len(set(banks)) == len(banks)  # one commit per bank


def test_invariant_commit_width_bound(loop_trace):
    for record in loop_trace.records:
        assert len(record.committed) <= 4


def test_invariant_rob_head_none_iff_empty(loop_trace):
    for record in loop_trace.records:
        assert (record.rob_head is None) == record.rob_empty


def test_invariant_dispatch_width_bound(loop_trace):
    for record in loop_trace.records:
        assert len(record.dispatched) <= 4


def test_invariant_exception_implies_empty(loop_trace):
    for record in loop_trace.records:
        if record.exception is not None:
            assert record.rob_empty


def test_every_static_instruction_commits(loop_trace):
    committed_addrs = {c.addr for r in loop_trace.records
                       for c in r.committed}
    # The loop body instructions all appear.
    assert len(committed_addrs) >= 8
