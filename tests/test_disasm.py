"""Disassembler tests, including assemble/disassemble round trips."""

from hypothesis import given, settings, strategies as st

from repro.isa.assembler import assemble
from repro.isa.disasm import disassemble, format_instruction
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op

SOURCE = """
.entry main
.func main
main:
    addi x1, x0, 100
    lui  x2, 16
loop:
    lw   x3, 0x2000(x1)
    fld  f1, -8(x1)
    fadd f2, f1, f1
    fmadd f3, f1, f2, f2
    sw   x3, 0(x1)
    fsd  f2, 8(x1)
    amoadd x4, x3, 0(x1)
    beq  x1, x2, done
    bne  x3, x0, loop
    frflags x5
    fsflags x5
    fence
    jal  x1, helper
done:
    halt
.func helper
helper:
    fsqrt f4, f1
    fcvt.w.d x6, f4
    jalr x0, x1, 0
.data 0x2000 3.5
"""


def test_round_trip_program():
    original = assemble(SOURCE)
    text = disassemble(original)
    rebuilt = assemble(text)
    assert len(rebuilt) == len(original)
    for a, b in zip(original.instructions, rebuilt.instructions):
        assert a.op is b.op
        assert a.rd == b.rd
        assert a.sources == b.sources
        assert a.imm == b.imm
        assert a.addr == b.addr
    assert rebuilt.entry == original.entry
    assert [f.name for f in rebuilt.functions] == \
        [f.name for f in original.functions]
    assert rebuilt.data == original.data


def test_format_uses_labels_for_branches():
    program = assemble(SOURCE)
    labels = {addr: name for name, addr in program.labels.items()}
    branch = next(i for i in program.instructions if i.op is Op.BEQ)
    assert "done" in format_instruction(branch, labels)


def test_format_nop_and_halt():
    assert format_instruction(Instruction(Op.NOP)) == "nop"
    assert format_instruction(Instruction(Op.HALT)) == "halt"
    assert format_instruction(Instruction(Op.FENCE)) == "fence"


def test_with_addresses():
    program = assemble(".func main\n    nop\n    halt\n")
    text = disassemble(program, with_addresses=True)
    assert "0x010000:" in text


_SIMPLE_OPS = [Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.MUL, Op.DIV,
               Op.FADD, Op.FMUL, Op.FDIV]


@given(op=st.sampled_from(_SIMPLE_OPS),
       rd=st.integers(1, 31), rs1=st.integers(0, 31),
       rs2=st.integers(0, 31))
@settings(max_examples=80)
def test_round_trip_random_alu(op, rd, rs1, rs2):
    fp = op in (Op.FADD, Op.FMUL, Op.FDIV)
    offset = 32 if fp else 0
    rd_reg = rd + offset if fp else rd
    sources = (rs1 + offset if fp else rs1, rs2 + offset if fp else rs2)
    inst = Instruction(op, rd_reg, sources, 0, 0x10000)
    text = f".func f\n    {format_instruction(inst)}\n"
    rebuilt = assemble(text).instructions[0]
    assert rebuilt.op is inst.op
    assert rebuilt.rd == inst.rd
    assert rebuilt.sources == inst.sources


@given(imm=st.integers(-(1 << 16), 1 << 16), rd=st.integers(1, 31),
       rs1=st.integers(0, 31))
@settings(max_examples=60)
def test_round_trip_random_immediates(imm, rd, rs1):
    inst = Instruction(Op.ADDI, rd, (rs1,), imm, 0x10000)
    text = f".func f\n    {format_instruction(inst)}\n"
    rebuilt = assemble(text).instructions[0]
    assert rebuilt.imm == imm
    assert rebuilt.rd == rd


@given(imm=st.integers(-1024, 1024), rd=st.integers(1, 31),
       base=st.integers(1, 31))
@settings(max_examples=60)
def test_round_trip_random_loads(imm, rd, base):
    inst = Instruction(Op.LD, rd, (base,), imm, 0x10000)
    text = f".func f\n    {format_instruction(inst)}\n"
    rebuilt = assemble(text).instructions[0]
    assert rebuilt.imm == imm
    assert rebuilt.sources == (base,)
