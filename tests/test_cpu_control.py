"""Control-flow prediction behaviour of the core."""

from conftest import run_asm


def test_loop_branch_learned():
    """The loop-closing branch should be predicted after warmup."""
    machine, _ = run_asm("""
    .func main
        addi x1, x0, 0
        addi x2, x0, 3000
    loop:
        addi x1, x1, 1
        bne  x1, x2, loop
        halt
    """)
    # 3000 iterations: only a learning transient + the exit mispredict.
    assert machine.stats.branch_mispredicts < 60


def test_random_branch_mispredicts_often():
    machine, _ = run_asm("""
    .data 0x2000 1
    .data 0x2010 1
    .data 0x2028 1
    .data 0x2038 1
    .func main
        addi x1, x0, 0
        addi x2, x0, 600
    loop:
        mul  x6, x1, x1
        xor  x6, x6, x1
        andi x3, x6, 56
        lw   x4, 0x2000(x3)
        beq  x4, x0, skip
        addi x5, x5, 1
    skip:
        addi x1, x1, 1
        bne  x1, x2, loop
        halt
    """, premapped=[(0x2000, 0x2040)])
    # The data-dependent beq follows a pseudo-random pattern.
    assert machine.stats.branch_mispredicts > 50


def test_return_address_stack_predicts_returns():
    machine, _ = run_asm("""
    .func main
        addi x2, x0, 2000
    loop:
        jal  x1, leaf
        addi x2, x2, -1
        bne  x2, x0, loop
        halt
    .func leaf
    leaf:
        addi x5, x5, 1
        jalr x0, x1, 0
    """)
    # Call/return pairs should be nearly perfectly predicted.
    assert machine.stats.branch_mispredicts < 40
    assert machine.core.regs[5] == 2000


def test_indirect_jump_via_register():
    machine, _ = run_asm("""
    .func main
        addi x6, x0, 0
        jal  x1, getpc
    getpc:
        # x1 holds the address after the jal; jump over the 999 inst.
        addi x7, x1, 12
        jalr x0, x7, 0
        addi x6, x0, 999   # skipped
        addi x8, x0, 1
        sw   x6, 0x3000(x0)
        halt
    """, premapped=[(0x3000, 0x3008)])
    assert machine.core.memory.get(0x3000) == 0


def test_wrong_path_fetch_off_text_recovers():
    """A mispredicted branch at the end of text sends fetch off the
    text segment; the core must recover cleanly."""
    machine, _ = run_asm("""
    .data 0x2000 0
    .func main
        lw   x1, 0x2000(x0)
        addi x2, x0, 1
        beq  x1, x2, target
        sw   x2, 0x3000(x0)
        halt
    target:
        halt
    """, premapped=[(0x2000, 0x2008), (0x3000, 0x3008)])
    assert machine.core.memory.get(0x3000) == 1


def test_btb_trained_after_first_taken():
    machine, collector = run_asm("""
    .func main
        addi x1, x0, 0
        addi x2, x0, 400
    loop:
        addi x1, x1, 1
        bne  x1, x2, loop
        halt
    """)
    # Loop-closing branch becomes a BTB hit; its target is cached.
    branch_addr = machine.image.labels["loop"] + 4
    assert machine.core.btb.lookup(branch_addr) == \
        machine.image.labels["loop"]


def test_mispredict_rob_empty_duration_is_small():
    """Paper: branch mispredicts empty the ROB for ~3.5 cycles."""
    machine, collector = run_asm("""
    .data 0x2000 1
    .data 0x2010 1
    .data 0x2028 1
    .func main
        addi x1, x0, 0
        addi x2, x0, 400
    loop:
        mul  x6, x1, x1
        andi x3, x6, 56
        lw   x4, 0x2000(x3)
        beq  x4, x0, skip
        addi x5, x5, 1
    skip:
        addi x1, x1, 1
        bne  x1, x2, loop
        halt
    """, premapped=[(0x2000, 0x2040)])
    # Measure empty-ROB episodes following a mispredicted commit.
    episodes = []
    run = 0
    after_mispredict = False
    for record in collector.records:
        if record.committed:
            if run and after_mispredict:
                episodes.append(run)
            run = 0
            after_mispredict = any(c.mispredicted
                                   for c in record.committed)
        elif record.rob_empty:
            run += 1
    assert episodes, "expected empty-ROB episodes after mispredicts"
    average = sum(episodes) / len(episodes)
    assert 2.0 <= average <= 8.0
