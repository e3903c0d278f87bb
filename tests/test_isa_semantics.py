"""Unit tests for functional instruction semantics."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op, info_for
from repro.isa.semantics import (INT64_MAX, INT64_MIN, ExecResult,
                                 evaluate, to_signed)


def _inst(op, rd=None, sources=(), imm=0, addr=0x1000):
    return Instruction(op, rd, tuple(sources), imm, addr)


def test_integer_alu():
    assert evaluate(_inst(Op.ADD, 1, (2, 3)), (4, 5)).value == 9
    assert evaluate(_inst(Op.SUB, 1, (2, 3)), (4, 5)).value == -1
    assert evaluate(_inst(Op.AND, 1, (2, 3)), (0b1100, 0b1010)).value == 0b1000
    assert evaluate(_inst(Op.XOR, 1, (2, 3)), (0b1100, 0b1010)).value == 0b0110
    assert evaluate(_inst(Op.SLL, 1, (2, 3)), (1, 4)).value == 16
    assert evaluate(_inst(Op.SRL, 1, (2, 3)), (16, 2)).value == 4
    assert evaluate(_inst(Op.SLT, 1, (2, 3)), (1, 2)).value == 1
    assert evaluate(_inst(Op.MUL, 1, (2, 3)), (7, 6)).value == 42


def test_immediates():
    assert evaluate(_inst(Op.ADDI, 1, (2,), imm=-3), (10,)).value == 7
    assert evaluate(_inst(Op.ANDI, 1, (2,), imm=0xF), (0x1234,)).value == 4
    assert evaluate(_inst(Op.SLLI, 1, (2,), imm=3), (2,)).value == 16
    assert evaluate(_inst(Op.LUI, 1, imm=5), ()).value == 5 << 12


def test_division_semantics():
    assert evaluate(_inst(Op.DIV, 1, (2, 3)), (7, 2)).value == 3
    assert evaluate(_inst(Op.DIV, 1, (2, 3)), (-7, 2)).value == -3  # trunc
    assert evaluate(_inst(Op.REM, 1, (2, 3)), (7, 2)).value == 1
    assert evaluate(_inst(Op.DIV, 1, (2, 3)), (7, -2)).value == -3
    # The remainder takes the dividend's sign.
    assert evaluate(_inst(Op.REM, 1, (2, 3)), (-7, 2)).value == -1
    assert evaluate(_inst(Op.REM, 1, (2, 3)), (7, -2)).value == 1
    assert evaluate(_inst(Op.DIV, 1, (2, 3)), (7, 0)).value == -1
    assert evaluate(_inst(Op.REM, 1, (2, 3)), (7, 0)).value == 7


def test_fp_ops():
    assert evaluate(_inst(Op.FADD, 33, (34, 35)), (1.5, 2.5)).value == 4.0
    assert evaluate(_inst(Op.FMUL, 33, (34, 35)), (3.0, 2.0)).value == 6.0
    assert evaluate(_inst(Op.FMADD, 33, (34, 35, 36)),
                    (2.0, 3.0, 1.0)).value == 7.0
    assert evaluate(_inst(Op.FDIV, 33, (34, 35)), (1.0, 4.0)).value == 0.25
    assert evaluate(_inst(Op.FDIV, 33, (34, 35)), (1.0, 0.0)).value == math.inf
    assert evaluate(_inst(Op.FSQRT, 33, (34,)), (9.0,)).value == 3.0
    assert evaluate(_inst(Op.FSQRT, 33, (34,)), (-1.0,)).value == 0.0


def test_fp_compares_yield_ints():
    assert evaluate(_inst(Op.FEQ, 1, (34, 35)), (2.0, 2.0)).value == 1
    assert evaluate(_inst(Op.FLT, 1, (34, 35)), (3.0, 2.0)).value == 0
    assert evaluate(_inst(Op.FLE, 1, (34, 35)), (2.0, 2.0)).value == 1


def test_conversions():
    assert evaluate(_inst(Op.FCVT_W_D, 1, (34,)), (3.7,)).value == 3
    assert evaluate(_inst(Op.FCVT_D_W, 33, (2,)), (3,)).value == 3.0


def test_loads_compute_effective_address():
    result = evaluate(_inst(Op.LD, 1, (2,), imm=16), (0x1000,))
    assert result.eff_addr == 0x1010
    assert result.value is None


def test_stores_carry_value():
    result = evaluate(_inst(Op.SD, None, (2, 3), imm=-8), (0x1000, 42))
    assert result.eff_addr == 0xFF8
    assert result.store_value == 42


def test_amoadd_semantics():
    result = evaluate(_inst(Op.AMOADD, 1, (2, 3)), (0x2000, 5))
    assert result.eff_addr == 0x2000
    assert result.store_value == 5  # old value added by the core


def test_branches():
    taken = evaluate(_inst(Op.BEQ, None, (1, 2), imm=0x2000), (5, 5))
    assert taken.taken and taken.target == 0x2000
    not_taken = evaluate(_inst(Op.BEQ, None, (1, 2), imm=0x2000,
                               addr=0x1000), (5, 6))
    assert not not_taken.taken
    assert not_taken.target == 0x1004
    assert evaluate(_inst(Op.BLT, None, (1, 2), imm=0x2000), (1, 2)).taken
    assert evaluate(_inst(Op.BGE, None, (1, 2), imm=0x2000), (2, 2)).taken


def test_jal_links_return_address():
    result = evaluate(_inst(Op.JAL, 1, (), imm=0x3000, addr=0x1000), ())
    assert result.taken and result.target == 0x3000
    assert result.value == 0x1004


def test_jalr_indirect_target():
    result = evaluate(_inst(Op.JALR, 0, (1,), imm=4, addr=0x1000), (0x2001,))
    assert result.target == 0x2004  # low bit cleared
    assert result.value == 0x1004


def test_frflags_reads_csr():
    assert evaluate(_inst(Op.FRFLAGS, 1), (), fflags=0b11).value == 0b11


def test_signed_wraparound():
    huge = (1 << 63) - 1
    result = evaluate(_inst(Op.ADD, 1, (2, 3)), (huge, 1)).value
    assert result == -(1 << 63)


# -- exact integer division ---------------------------------------------------


def test_div_is_exact_beyond_double_precision():
    assert evaluate(_inst(Op.DIV, 1, (2, 3)), (2**53 + 1, 1)).value \
        == 2**53 + 1


def test_div_and_rem_are_exact_near_int64_max():
    a = 2**62 + 1
    assert evaluate(_inst(Op.DIV, 1, (2, 3)), (a, 3)).value == a // 3
    assert evaluate(_inst(Op.REM, 1, (2, 3)), (a, 3)).value == 2


def test_div_overflow_wraps_like_risc_v():
    """``INT64_MIN / -1`` overflows: the quotient is INT64_MIN and the
    remainder 0, both inside int64."""
    assert evaluate(_inst(Op.DIV, 1, (2, 3)), (INT64_MIN, -1)).value \
        == INT64_MIN
    assert evaluate(_inst(Op.REM, 1, (2, 3)), (INT64_MIN, -1)).value == 0


# -- the per-opcode table equals the if-chain it replaced ---------------------
#
# ``_reference_evaluate`` is the if-chain ``evaluate`` was before each
# opcode got its own evaluator, kept verbatim apart from DIV/REM: those
# divided through a float, and the reference for them is the exact rule.

_MASK64 = (1 << 64) - 1
_to_signed = to_signed

_INT_ALU: dict = {
    Op.ADD: lambda a, b: a + b,
    Op.SUB: lambda a, b: a - b,
    Op.AND: lambda a, b: int(a) & int(b),
    Op.OR: lambda a, b: int(a) | int(b),
    Op.XOR: lambda a, b: int(a) ^ int(b),
    Op.SLL: lambda a, b: int(a) << (int(b) & 63),
    Op.SRL: lambda a, b: (int(a) & _MASK64) >> (int(b) & 63),
    Op.SLT: lambda a, b: int(a < b),
    Op.MUL: lambda a, b: int(a) * int(b),
}

_INT_IMM: dict = {
    Op.ADDI: lambda a, imm: a + imm,
    Op.ANDI: lambda a, imm: int(a) & imm,
    Op.ORI: lambda a, imm: int(a) | imm,
    Op.XORI: lambda a, imm: int(a) ^ imm,
    Op.SLLI: lambda a, imm: int(a) << (imm & 63),
    Op.SRLI: lambda a, imm: (int(a) & _MASK64) >> (imm & 63),
    Op.SLTI: lambda a, imm: int(a < imm),
}

_FP_ALU: dict = {
    Op.FADD: lambda a, b: a + b,
    Op.FSUB: lambda a, b: a - b,
    Op.FMUL: lambda a, b: a * b,
    Op.FMIN: lambda a, b: min(a, b),
    Op.FMAX: lambda a, b: max(a, b),
    Op.FEQ: lambda a, b: int(a == b),
    Op.FLT: lambda a, b: int(a < b),
    Op.FLE: lambda a, b: int(a <= b),
}

_BRANCH_COND: dict = {
    Op.BEQ: lambda a, b: a == b,
    Op.BNE: lambda a, b: a != b,
    Op.BLT: lambda a, b: a < b,
    Op.BGE: lambda a, b: a >= b,
}


def _reference_evaluate(inst: Instruction, operands: tuple,
                        fflags: int = 0) -> ExecResult:
    op = inst.op

    if op in _INT_ALU:
        return ExecResult(value=_to_signed(int(_INT_ALU[op](*operands))))
    if op in _INT_IMM:
        return ExecResult(value=_to_signed(int(_INT_IMM[op](operands[0],
                                                            inst.imm))))
    if op is Op.LUI:
        return ExecResult(value=_to_signed(inst.imm << 12))
    if op in (Op.DIV, Op.REM):
        a, b = int(operands[0]), int(operands[1])
        if b == 0:
            return ExecResult(value=-1 if op is Op.DIV else a)
        quotient = math.trunc(Fraction(a, b))
        if op is Op.DIV:
            return ExecResult(value=_to_signed(quotient))
        return ExecResult(value=_to_signed(a - b * quotient))

    if op in _FP_ALU:
        return ExecResult(value=_FP_ALU[op](*operands))
    if op is Op.FMADD:
        return ExecResult(value=operands[0] * operands[1] + operands[2])
    if op is Op.FDIV:
        divisor = operands[1]
        if divisor == 0:
            return ExecResult(value=math.inf if operands[0] >= 0
                              else -math.inf)
        return ExecResult(value=operands[0] / divisor)
    if op is Op.FSQRT:
        return ExecResult(value=math.sqrt(max(operands[0], 0.0)))
    if op is Op.FCVT_W_D:
        return ExecResult(value=int(operands[0]))
    if op is Op.FCVT_D_W:
        return ExecResult(value=float(operands[0]))
    if op is Op.FMV:
        return ExecResult(value=operands[0])

    if op in (Op.LW, Op.LD, Op.FLD):
        return ExecResult(eff_addr=int(operands[0]) + inst.imm)
    if op in (Op.SW, Op.SD, Op.FSD):
        return ExecResult(eff_addr=int(operands[0]) + inst.imm,
                          store_value=operands[1])
    if op is Op.AMOADD:
        return ExecResult(eff_addr=int(operands[0]) + inst.imm,
                          store_value=operands[1])

    if op in _BRANCH_COND:
        taken = bool(_BRANCH_COND[op](*operands))
        return ExecResult(taken=taken,
                          target=inst.imm if taken else inst.next_addr)
    if op is Op.JAL:
        return ExecResult(value=inst.next_addr, taken=True, target=inst.imm)
    if op is Op.JALR:
        return ExecResult(value=inst.next_addr, taken=True,
                          target=(int(operands[0]) + inst.imm) & ~1)

    if op is Op.FRFLAGS:
        return ExecResult(value=fflags)
    if op in (Op.FSFLAGS, Op.CSRRW):
        return ExecResult(value=fflags)

    # NOP, HALT, FENCE, SRET, ECALL: no architectural result here.
    return ExecResult()


def _outcome(fn, *args):
    """``repr`` of the result, or the exception type: ``repr`` tells
    ``-0.0`` from ``0.0``, an int from an equal float, and matches NaN
    with NaN, so equal outcomes are bit-identical."""
    try:
        return repr(fn(*args))
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__


_EDGE_INTS = [INT64_MIN, INT64_MIN + 1, -2**62 - 1, -2**53 - 1, -1, 0, 1,
              2**53 + 1, 2**62 + 1, INT64_MAX - 1, INT64_MAX]

_VALUES = st.one_of(
    st.sampled_from(_EDGE_INTS),
    st.integers(INT64_MIN, INT64_MAX),
    st.integers(-64, 64),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def _instructions(draw):
    op = draw(st.sampled_from(list(Op)))
    sources = tuple(range(1, 1 + info_for(op).num_sources))
    inst = Instruction(op, rd=5, sources=sources,
                       imm=draw(st.integers(-2**31, 2**31)),
                       addr=4 * draw(st.integers(0, 2**20)))
    operands = tuple(draw(_VALUES) for _ in sources)
    return inst, operands, draw(st.integers(0, 31))


@given(_instructions())
@settings(max_examples=2000, deadline=None)
def test_table_evaluate_matches_reference_if_chain(case):
    inst, operands, fflags = case
    assert _outcome(evaluate, inst, operands, fflags) == \
        _outcome(_reference_evaluate, inst, operands, fflags)


@pytest.mark.parametrize("op", list(Op), ids=lambda op: op.value)
def test_table_evaluate_matches_reference_on_edge_values(op):
    """Every opcode on every pair of edge values, hypothesis aside."""
    edges = _EDGE_INTS + [0.0, -0.0, 2.5, -2.5, math.inf, -math.inf,
                          math.nan]
    sources = tuple(range(1, 1 + info_for(op).num_sources))
    inst = Instruction(op, rd=5, sources=sources, imm=-12, addr=0x2000)
    for a in edges:
        for b in edges:
            operands = (a, b, a)[:len(sources)]
            assert _outcome(evaluate, inst, operands, 3) == \
                _outcome(_reference_evaluate, inst, operands, 3), \
                (op, operands)
