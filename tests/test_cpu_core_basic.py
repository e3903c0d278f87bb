"""Functional correctness of the out-of-order core.

These tests run small programs to completion and check the architectural
results -- registers and memory -- independent of timing.
"""

from conftest import run_asm


def _mem(machine, addr):
    return machine.core.memory.get(addr)


def test_arithmetic_results():
    machine, _ = run_asm("""
    .func main
        addi x1, x0, 6
        addi x2, x0, 7
        mul  x3, x1, x2
        sw   x3, 0x3000(x0)
        halt
    """, premapped=[(0x3000, 0x3008)])
    assert _mem(machine, 0x3000) == 42


def test_loop_sums_correctly():
    machine, _ = run_asm("""
    .func main
        addi x1, x0, 0
        addi x2, x0, 0
    loop:
        addi x1, x1, 1
        add  x2, x2, x1
        addi x3, x0, 100
        bne  x1, x3, loop
        sw   x2, 0x3000(x0)
        halt
    """, premapped=[(0x3000, 0x3008)])
    assert _mem(machine, 0x3000) == 5050


def test_load_reads_initial_data():
    machine, _ = run_asm("""
    .data 0x2000 123
    .func main
        lw   x1, 0x2000(x0)
        addi x1, x1, 1
        sw   x1, 0x2008(x0)
        halt
    """, premapped=[(0x2000, 0x2010)])
    assert _mem(machine, 0x2008) == 124


def test_store_to_load_forwarding_value():
    machine, _ = run_asm("""
    .func main
        addi x1, x0, 77
        sw   x1, 0x2000(x0)
        lw   x2, 0x2000(x0)
        addi x2, x2, 1
        sw   x2, 0x2008(x0)
        halt
    """, premapped=[(0x2000, 0x2010)])
    assert _mem(machine, 0x2008) == 78


def test_call_and_return():
    machine, _ = run_asm("""
    .entry main
    .func main
    main:
        addi x5, x0, 10
        jal  x1, double
        sw   x5, 0x3000(x0)
        halt
    .func double
    double:
        add  x5, x5, x5
        jalr x0, x1, 0
    """, premapped=[(0x3000, 0x3008)])
    assert _mem(machine, 0x3000) == 20


def test_nested_calls():
    machine, _ = run_asm("""
    .entry main
    .func main
    main:
        addi x5, x0, 1
        jal  x1, outer
        sw   x5, 0x3000(x0)
        halt
    .func outer
    outer:
        addi x5, x5, 10
        jal  x2, inner
        addi x5, x5, 100
        jalr x0, x1, 0
    .func inner
    inner:
        addi x5, x5, 1000
        jalr x0, x2, 0
    """, premapped=[(0x3000, 0x3008)])
    assert _mem(machine, 0x3000) == 1111


def test_fp_computation():
    machine, _ = run_asm("""
    .data 0x2000 1.5
    .data 0x2008 2.5
    .func main
        fld  f1, 0x2000(x0)
        fld  f2, 0x2008(x0)
        fadd f3, f1, f2
        fmul f4, f3, f3
        fsd  f4, 0x2010(x0)
        halt
    """, premapped=[(0x2000, 0x2020)])
    assert _mem(machine, 0x2010) == 16.0


def test_x0_is_hardwired_zero():
    machine, _ = run_asm("""
    .func main
        addi x0, x0, 99
        add  x1, x0, x0
        sw   x1, 0x3000(x0)
        halt
    """, premapped=[(0x3000, 0x3008)])
    assert _mem(machine, 0x3000) == 0


def test_data_dependent_branches():
    machine, _ = run_asm("""
    .data 0x2000 5
    .func main
        lw   x1, 0x2000(x0)
        addi x2, x0, 10
        blt  x1, x2, less
        addi x3, x0, 111
        sw   x3, 0x3000(x0)
        halt
    less:
        addi x3, x0, 222
        sw   x3, 0x3000(x0)
        halt
    """, premapped=[(0x2000, 0x2008), (0x3000, 0x3008)])
    assert _mem(machine, 0x3000) == 222


def test_amoadd_atomic_update():
    machine, _ = run_asm("""
    .data 0x2000 10
    .func main
        addi x1, x0, 0x2000
        addi x2, x0, 5
        amoadd x3, x2, 0(x1)
        sw   x3, 0x3000(x0)
        halt
    """, premapped=[(0x2000, 0x2008), (0x3000, 0x3008)])
    assert _mem(machine, 0x2000) == 15   # memory updated
    assert _mem(machine, 0x3000) == 10   # old value returned


def test_fence_is_transparent_architecturally():
    machine, _ = run_asm("""
    .func main
        addi x1, x0, 3
        fence
        addi x1, x1, 4
        sw   x1, 0x3000(x0)
        halt
    """, premapped=[(0x3000, 0x3008)])
    assert _mem(machine, 0x3000) == 7


def test_stats_count_commits():
    machine, collector = run_asm("""
    .func main
        nop
        nop
        nop
        halt
    """)
    # 4 program instructions committed (handler not invoked).
    assert machine.stats.committed == 4
    total_trace_commits = sum(len(r.committed) for r in collector.records)
    assert total_trace_commits == 4


def test_ipc_bounded_by_commit_width():
    machine, _ = run_asm("""
    .func main
        addi x1, x0, 0
        addi x2, x0, 2000
    loop:
        add  x3, x3, x1
        add  x4, x4, x1
        add  x5, x5, x1
        addi x1, x1, 1
        bne  x1, x2, loop
        halt
    """)
    assert 0.0 < machine.stats.ipc <= machine.config.commit_width
