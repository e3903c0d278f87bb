"""Fault-path coverage: store faults, atomic faults, fault interactions."""

from conftest import run_asm


def test_store_page_fault_handled():
    """Stores translate at execute (RFO); an unmapped page faults and the
    store re-executes after the handler installs it."""
    machine, collector = run_asm("""
    .func main
        addi x1, x0, 77
        sd   x1, 0x100000(x0)
        ld   x2, 0x100000(x0)
        sw   x2, 0x3000(x0)
        halt
    """, premapped=[(0x3000, 0x3008)])
    assert machine.stats.exceptions == 1
    assert machine.core.memory.get(0x100000) == 77
    assert machine.core.memory.get(0x3000) == 77


def test_amoadd_page_fault_handled():
    machine, _ = run_asm("""
    .func main
        addi x1, x0, 0x100000
        addi x2, x0, 5
        amoadd x3, x2, 0(x1)
        sw   x3, 0x3000(x0)
        halt
    """, premapped=[(0x3000, 0x3008)])
    assert machine.stats.exceptions == 1
    assert machine.core.memory.get(0x100000) == 5
    assert machine.core.memory.get(0x3000) == 0  # old value was 0


def test_many_faults_across_pages():
    machine, _ = run_asm("""
    .func main
        addi x1, x0, 0
        addi x2, x0, 6
    loop:
        lw   x3, 0x100000(x1)
        add  x4, x4, x3
        addi x1, x1, 4096
        addi x2, x2, -1
        bne  x2, x0, loop
        sw   x4, 0x3000(x0)
        halt
    """, premapped=[(0x3000, 0x3008)])
    assert machine.stats.exceptions == 6
    assert machine.core.memory.get(0x3000) == 0


def test_fault_inside_loop_preserves_loop_state():
    """The excepting load replays without disturbing older state."""
    machine, _ = run_asm("""
    .func main
        addi x1, x0, 0
        addi x5, x0, 0
        addi x2, x0, 20
    loop:
        addi x5, x5, 1
        lw   x3, 0x100000(x0)
        addi x1, x1, 1
        bne  x1, x2, loop
        sw   x5, 0x3000(x0)
        halt
    """, premapped=[(0x3000, 0x3008)])
    assert machine.stats.exceptions == 1  # only the first touch faults
    assert machine.core.memory.get(0x3000) == 20


def test_fault_followed_by_mispredict():
    """Exception and branch-mispredict recovery compose."""
    machine, _ = run_asm("""
    .data 0x2000 1
    .func main
        addi x2, x0, 40
        addi x6, x0, 0
    loop:
        mul  x4, x2, x2
        andi x3, x4, 24
        lw   x5, 0x2000(x3)
        beq  x5, x0, skip
        addi x6, x6, 1
    skip:
        lw   x7, 0x100000(x2)
        addi x2, x2, -1
        bne  x2, x0, loop
        sw   x6, 0x3000(x0)
        halt
    """, premapped=[(0x2000, 0x2020), (0x3000, 0x3008)])
    assert machine.stats.exceptions >= 1
    assert machine.stats.branch_mispredicts > 0
    assert machine.core.memory.get(0x3000) is not None


def test_fault_vpn_recorded_by_kernel():
    machine, _ = run_asm("""
    .func main
        lw x1, 0x123000(x0)
        halt
    """)
    assert [vpn for vpn, _ in machine.kernel.faults] == [0x123]
