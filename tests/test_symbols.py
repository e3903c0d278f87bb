"""Symbolizer tests: basic-block recovery and granularity mapping."""

from repro.analysis.symbols import (Granularity, OFF_TEXT, Symbolizer,
                                    UNKNOWN_FUNCTION)
from repro.isa.assembler import assemble

PROGRAM = assemble("""
.entry main
.func main
main:
    addi x1, x0, 0
    addi x2, x0, 10
loop:
    addi x1, x1, 1
    beq  x1, x2, done
    add  x3, x3, x1
    bne  x1, x0, loop
done:
    jal  x1, helper
    halt
.func helper
helper:
    add x4, x4, x4
    jalr x0, x1, 0
""")

SYM = Symbolizer(PROGRAM)
ADDRS = [inst.addr for inst in PROGRAM.instructions]


def test_instruction_granularity_is_identity():
    for addr in ADDRS:
        assert SYM.instruction(addr) == addr


def test_off_text_instruction():
    assert SYM.instruction(0xDEAD000) == OFF_TEXT


def test_function_mapping():
    assert SYM.function(ADDRS[0]) == "main"
    assert SYM.function(ADDRS[-1]) == "helper"


def test_function_off_text():
    assert SYM.function(0xDEAD000) == OFF_TEXT


def test_basic_block_leaders():
    # Leaders: main (entry), loop (branch target), after beq, done
    # (branch target), after bne(=done? no: bne's follower is done),
    # after jal, helper, after jalr (none: end).
    labels = PROGRAM.labels
    assert SYM.basic_block(labels["main"]) == labels["main"]
    assert SYM.basic_block(labels["main"] + 4) == labels["main"]
    assert SYM.basic_block(labels["loop"]) == labels["loop"]
    assert SYM.basic_block(labels["done"]) == labels["done"]
    assert SYM.basic_block(labels["helper"]) == labels["helper"]


def test_block_boundary_after_branch():
    labels = PROGRAM.labels
    beq_addr = labels["loop"] + 4
    after_beq = beq_addr + 4
    assert SYM.basic_block(beq_addr) == labels["loop"]
    assert SYM.basic_block(after_beq) == after_beq  # new block


def test_instructions_in_same_straightline_block():
    labels = PROGRAM.labels
    # add (after beq) and bne share a block.
    after_beq = labels["loop"] + 8
    bne_addr = labels["loop"] + 12
    assert SYM.basic_block(after_beq) == SYM.basic_block(bne_addr)


def test_aggregate_collapses_weights():
    labels = PROGRAM.labels
    weights = [(labels["main"], 0.25), (labels["main"] + 4, 0.25),
               (labels["helper"], 0.5)]
    by_func = SYM.aggregate(weights, Granularity.FUNCTION)
    assert by_func == {"main": 0.5, "helper": 0.5}


def test_symbol_dispatch():
    addr = ADDRS[0]
    assert SYM.symbol(addr, Granularity.INSTRUCTION) == addr
    assert SYM.symbol(addr, Granularity.BASIC_BLOCK) == addr
    assert SYM.symbol(addr, Granularity.FUNCTION) == "main"


def test_num_basic_blocks():
    assert SYM.num_basic_blocks >= 5


def test_unknown_function_for_uncovered_text():
    # Build a program whose instructions are outside any function.
    from repro.isa.opcodes import Op
    from repro.isa.program import ProgramBuilder
    builder = ProgramBuilder()
    builder.emit(Op.NOP)
    builder.emit(Op.HALT)
    program = builder.build()
    sym = Symbolizer(program)
    assert sym.function(program.text_lo) == UNKNOWN_FUNCTION
