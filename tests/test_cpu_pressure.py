"""Structural-pressure behaviour: full ROB/IQ/LQ/SQ, fetch buffer.

These use the tiny core configuration so the limits are easy to hit,
and check both that execution stays architecturally correct under
pressure and that the expected back-pressure appears in the trace.
"""

from repro.cpu.config import CoreConfig
from conftest import run_asm


def test_rob_fill_creates_dispatch_backpressure():
    """A long-latency load at the head lets the ROB fill up; dispatch
    must stall (Figure 2b's scenario)."""
    config = CoreConfig.boom_4wide()
    machine, collector = run_asm("""
    .func main
        addi x1, x0, 0
        addi x2, x0, 64
    loop:
        ld   x3, 0x400000(x1)
        add  x4, x4, x3
        add  x5, x5, x4
        add  x6, x6, x5
        add  x7, x7, x6
        addi x1, x1, 4096
        addi x2, x2, -1
        bne  x2, x0, loop
        halt
    """, config=config, premapped=[(0x400000, 0x400000 + 64 * 4096)])
    # While stalled on DRAM loads, something must be waiting at dispatch.
    stalled_with_dispatch = sum(
        1 for r in collector.records
        if not r.committed and not r.rob_empty
        and r.dispatch_pc is not None)
    assert stalled_with_dispatch > 100


def test_tiny_rob_limits_ilp(tiny_config):
    machine, _ = run_asm("""
    .func main
        addi x1, x0, 0
        addi x2, x0, 500
    loop:
        add  x3, x3, x1
        add  x4, x4, x1
        add  x5, x5, x1
        add  x6, x6, x1
        addi x1, x1, 1
        bne  x1, x2, loop
        halt
    """, config=tiny_config)
    assert machine.stats.ipc <= tiny_config.commit_width
    assert machine.core.regs[3] == sum(range(500))


def test_load_queue_full_stalls_dispatch(tiny_config):
    """More loads in flight than LQ entries: still correct results."""
    machine, _ = run_asm("""
    .data 0x2000 5
    .func main
        addi x2, x0, 100
    loop:
        lw   x3, 0x2000(x0)
        lw   x4, 0x2000(x0)
        lw   x5, 0x2000(x0)
        lw   x6, 0x2000(x0)
        lw   x7, 0x2000(x0)
        lw   x8, 0x2000(x0)
        add  x9, x3, x8
        addi x2, x2, -1
        bne  x2, x0, loop
        sw   x9, 0x3000(x0)
        halt
    """, config=tiny_config, premapped=[(0x2000, 0x2008),
                                        (0x3000, 0x3008)])
    assert machine.core.memory.get(0x3000) == 10


def test_store_queue_pressure(tiny_config):
    machine, _ = run_asm("""
    .func main
        addi x1, x0, 0
        addi x2, x0, 200
    loop:
        sd   x2, 0x2000(x1)
        sd   x2, 0x2008(x1)
        sd   x2, 0x2010(x1)
        addi x1, x1, 24
        addi x2, x2, -1
        bne  x2, x0, loop
        halt
    """, config=tiny_config, premapped=[(0x2000, 0x4000)])
    assert machine.core.memory.get(0x2000 + 24 * 199) == 1


def test_fp_iq_pressure(tiny_config):
    machine, _ = run_asm("""
    .data 0x2000 2.0
    .func main
        fld  f1, 0x2000(x0)
        addi x2, x0, 50
    loop:
        fadd f2, f2, f1
        fadd f3, f3, f1
        fadd f4, f4, f1
        fadd f5, f5, f1
        fadd f6, f6, f1
        addi x2, x2, -1
        bne  x2, x0, loop
        fsd  f2, 0x2008(x0)
        halt
    """, config=tiny_config, premapped=[(0x2000, 0x2010)])
    assert machine.core.memory.get(0x2008) == 100.0


def test_outstanding_branch_cap_does_not_break(tiny_config):
    """A burst of branches beyond the outstanding-branch cap stalls
    fetch but execution remains correct."""
    body = "\n".join(
        f"    bne  x1, x0, l{i}\nl{i}:" for i in range(30))
    machine, _ = run_asm(f"""
    .func main
        addi x1, x0, 1
        addi x2, x0, 40
    loop:
{body}
        addi x2, x2, -1
        bne  x2, x0, loop
        sw   x2, 0x3000(x0)
        halt
    """, config=tiny_config, premapped=[(0x3000, 0x3008)])
    assert machine.core.memory.get(0x3000) == 0


def test_commit_history_recorded():
    machine, _ = run_asm("""
    .func main
        addi x1, x0, 0
        addi x2, x0, 300
    loop:
        add  x3, x3, x1
        add  x4, x4, x1
        add  x5, x5, x1
        addi x1, x1, 1
        bne  x1, x2, loop
        halt
    """)
    hist = machine.stats.commit_hist
    assert sum(i * n for i, n in enumerate(hist)) == machine.stats.committed
    assert hist[4] > 0  # some full-width commits happened
