"""Microarchitectural event behaviour: flushes, stalls, exceptions.

These tests check the *trace-visible* behaviour the profilers depend on:
mispredicted-branch commits, CSR flush-on-commit, empty-ROB episodes,
page-fault exceptions running the kernel handler, serialization, and
memory-ordering replays.
"""

from repro.cpu.config import CoreConfig
from repro.cpu.machine import Machine
from repro.isa.assembler import assemble
from repro.isa.program import KERNEL_TEXT_BASE
from conftest import run_asm


def test_mispredicted_branch_flagged_in_trace():
    machine, collector = run_asm("""
    .data 0x2000 1
    .data 0x2008 0
    .func main
        addi x1, x0, 0
        addi x2, x0, 64
    loop:
        andi x3, x1, 8
        lw   x4, 0x2000(x3)
        beq  x4, x0, skip
        addi x5, x5, 1
    skip:
        addi x1, x1, 1
        bne  x1, x2, loop
        halt
    """, premapped=[(0x2000, 0x2010)])
    assert machine.stats.branch_mispredicts > 0
    flagged = [c for r in collector.records for c in r.committed
               if c.mispredicted]
    assert flagged


def test_csr_commit_flushes_pipeline():
    machine, collector = run_asm("""
    .func main
        addi x1, x0, 0
        addi x2, x0, 20
    loop:
        frflags x3
        addi x1, x1, 1
        bne  x1, x2, loop
        halt
    """)
    assert machine.stats.csr_flushes >= 20
    flush_commits = [c for r in collector.records for c in r.committed
                     if c.flushes]
    assert len(flush_commits) >= 20
    # Each flush empties the ROB: there must be empty cycles afterwards.
    empty = sum(1 for r in collector.records if r.rob_empty)
    assert empty >= 20


def test_flush_commits_alone_and_stops_group():
    _, collector = run_asm("""
    .func main
        addi x1, x0, 1
        addi x2, x0, 2
        fsflags x1
        addi x3, x0, 3
        addi x4, x0, 4
        halt
    """)
    for record in collector.records:
        flushing = [c for c in record.committed if c.flushes]
        if flushing:
            # The flushing instruction is the youngest commit that cycle.
            assert record.committed[-1].flushes


def test_page_fault_runs_handler_and_reexecutes():
    machine, collector = run_asm("""
    .func main
        lw   x1, 0x100000(x0)
        addi x1, x1, 5
        sw   x1, 0x3000(x0)
        halt
    """, premapped=[(0x3000, 0x3008)])
    assert machine.stats.exceptions == 1
    assert machine.kernel.faults
    # The handler's instructions committed (addresses in kernel text).
    handler_commits = [c for r in collector.records for c in r.committed
                       if c.addr >= KERNEL_TEXT_BASE]
    assert handler_commits
    # The faulting load eventually re-executed: result stored.
    assert machine.core.memory.get(0x3000) == 5
    # An exception event appeared in the trace.
    assert any(r.exception is not None and not r.exception_is_ordering
               for r in collector.records)


def test_page_fault_only_once_per_page():
    machine, _ = run_asm("""
    .func main
        lw   x1, 0x100000(x0)
        lw   x2, 0x100008(x0)
        lw   x3, 0x100100(x0)
        halt
    """)
    assert machine.stats.exceptions == 1


def test_serialized_fence_drains_rob():
    machine, collector = run_asm("""
    .func main
        addi x1, x0, 10
        addi x2, x0, 20
        fence
        addi x3, x0, 30
        halt
    """)
    # Find the fence dispatch cycle; the ROB must have been empty just
    # before it entered.
    fence_addr = machine.image.labels["main"] + 8
    dispatch_cycles = [r.cycle for r in collector.records
                       if fence_addr in r.dispatched]
    assert len(dispatch_cycles) == 1
    record = collector.records[dispatch_cycles[0]]
    assert list(record.dispatched) == [fence_addr]  # dispatched alone


def test_ordering_violation_replays_load(tiny_config):
    """A load issued past an older store to the same address must replay
    (mini-exception) and still produce the right value."""
    config = CoreConfig.boom_4wide()
    machine, collector = run_asm("""
    .data 0x2000 1
    .func main
        addi x1, x0, 0x2000
        lw   x2, 0x2100(x0)
        mul  x3, x2, x2
        mul  x3, x3, x3
        add  x4, x1, x3
        sw   x5, 0(x4)
        lw   x6, 0x2000(x0)
        add  x7, x6, x0
        sw   x7, 0x3000(x0)
        halt
    .data 0x2100 0
    """, config=config, premapped=[(0x2000, 0x2110), (0x3000, 0x3008)])
    # The store address resolves late (mul chain); the younger load to
    # 0x2000 executes early and reads stale data, then replays.
    assert machine.stats.ordering_flushes >= 1
    assert machine.core.memory.get(0x3000) == 0  # x5 == 0 was stored
    assert any(r.exception_is_ordering for r in collector.records)


def test_empty_rob_on_startup_counts_as_drain():
    _, collector = run_asm(".func main\n    halt\n")
    first = collector.records[0]
    assert first.rob_empty
    assert not first.committed


def test_trace_cycles_are_contiguous():
    _, collector = run_asm("""
    .func main
        addi x1, x0, 5
        halt
    """)
    cycles = [r.cycle for r in collector.records]
    assert cycles == list(range(len(cycles)))


def test_head_banks_consistent_with_rob_head(monkeypatch):
    """Each stepped cycle's head columns are the core's ROB head.

    With one cycle per block, every block reaches the observer while
    the core still holds the state its row was taken from.
    """
    import repro.cpu.core as core_module
    monkeypatch.setattr(core_module, "DEFAULT_CHUNK_CYCLES", 1)
    program = assemble("""
    .func main
        addi x1, x0, 0
        addi x2, x0, 50
    loop:
        lw   x3, 0x2000(x1)
        add  x4, x4, x3
        addi x1, x1, 8
        andi x1, x1, 255
        bne  x2, x1, check
    check:
        addi x2, x2, -1
        bne  x2, x0, loop
        halt
    """, name="test")
    machine = Machine(program, premapped_data=[(0x2000, 0x2200)])
    heads = []

    class HeadCheck:
        def on_block(self, block):
            assert block.n == 1
            rob = machine.core.rob
            head = rob[0].inst.addr if rob else None
            assert block.rob_head_at(0) == head
            assert block.oldest_bank[0] == (rob[0].bank if rob else 0)
            heads.append(head)

        def on_finish(self, final_cycle):
            pass

    machine.attach(HeadCheck())
    machine.run(500_000)
    assert len(heads) == machine.stats.cycles
    assert None in heads and any(heads)


def test_max_cycles_raises():
    from repro.cpu.core import SimulationError
    import pytest as _pytest
    with _pytest.raises(SimulationError):
        run_asm("""
        .func main
        spin:
            beq x0, x0, spin
            halt
        """, max_cycles=2000)
