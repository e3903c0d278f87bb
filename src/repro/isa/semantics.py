"""Functional semantics of the ISA.

The out-of-order core is *execute-at-execute*: when a dynamic instruction
reaches its functional unit, :func:`evaluate` computes its architectural
effect (result value, branch outcome, effective address) from the operand
values.  Keeping semantics separate from timing keeps both sides simple
and independently testable.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional

from .opcodes import Op

if TYPE_CHECKING:
    from .instruction import Instruction

_MASK64 = (1 << 64) - 1

#: Signed 64-bit result range.  The abstract interpreter
#: (:mod:`repro.lint.absint`) shares these with :func:`to_signed` so
#: its overflow handling can never drift from the concrete wrapping
#: below.
INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


def _to_signed(value: int) -> int:
    value &= _MASK64
    return value - (1 << 64) if value >= (1 << 63) else value


def to_signed(value: int) -> int:
    """Wrap an integer to the signed 64-bit range (public alias used by
    the abstract interpreter's transfer functions)."""
    return _to_signed(value)


@dataclass
class ExecResult:
    """Outcome of functionally executing one instruction."""

    #: Result value to write to the destination register (if any).
    value: Optional[float] = None
    #: For control-flow instructions: was the branch taken?
    taken: bool = False
    #: For taken control flow: the target address.
    target: Optional[int] = None
    #: For memory instructions: the effective address.
    eff_addr: Optional[int] = None
    #: For stores/atomics: the value to write to memory.
    store_value: Optional[float] = None


Evaluator = Callable[["Instruction", tuple, int], ExecResult]


def _trunc_div(a: int, b: int) -> int:
    """Exact quotient truncated toward zero, as RISC-V requires."""
    quotient = abs(a) // abs(b)
    return quotient if (a < 0) == (b < 0) else -quotient


def _div(inst, operands, fflags) -> ExecResult:
    # Wrapped, so INT64_MIN / -1 is INT64_MIN; -1 on a zero divisor.
    a, b = int(operands[0]), int(operands[1])
    if b == 0:
        return ExecResult(value=-1)
    return ExecResult(value=_to_signed(_trunc_div(a, b)))


def _rem(inst, operands, fflags) -> ExecResult:
    # Takes the dividend's sign; the dividend itself on a zero divisor.
    a, b = int(operands[0]), int(operands[1])
    if b == 0:
        return ExecResult(value=a)
    return ExecResult(value=_to_signed(a - b * _trunc_div(a, b)))


def _int_op(fn: Callable) -> Evaluator:
    """Register-register integer op, wrapped to int64."""
    return lambda inst, operands, fflags: ExecResult(
        value=_to_signed(int(fn(*operands))))


def _imm_op(fn: Callable) -> Evaluator:
    """Register-immediate integer op, wrapped to int64."""
    return lambda inst, operands, fflags: ExecResult(
        value=_to_signed(int(fn(operands[0], inst.imm))))


def _fp_op(fn: Callable) -> Evaluator:
    return lambda inst, operands, fflags: ExecResult(value=fn(*operands))


def _branch(cond: Callable) -> Evaluator:
    def run(inst, operands, fflags) -> ExecResult:
        taken = bool(cond(*operands))
        return ExecResult(taken=taken,
                          target=inst.imm if taken else inst.next_addr)
    return run


def _fdiv(inst, operands, fflags) -> ExecResult:
    divisor = operands[1]
    if divisor == 0:
        return ExecResult(value=math.inf if operands[0] >= 0
                          else -math.inf)
    return ExecResult(value=operands[0] / divisor)


def _load(inst, operands, fflags) -> ExecResult:
    return ExecResult(eff_addr=int(operands[0]) + inst.imm)


def _store(inst, operands, fflags) -> ExecResult:
    # Atomics too: the core adds the old memory value at commit.
    return ExecResult(eff_addr=int(operands[0]) + inst.imm,
                      store_value=operands[1])


def _read_fflags(inst, operands, fflags) -> ExecResult:
    return ExecResult(value=fflags)


def _no_result(inst, operands, fflags) -> ExecResult:
    # NOP, HALT, FENCE, SRET, ECALL: no architectural result here.
    return ExecResult()


#: One evaluator per opcode, ``(inst, operands, fflags) -> ExecResult``.
#: :class:`~repro.isa.instruction.Instruction` holds its opcode's entry,
#: so :func:`evaluate` is a single call with no opcode dispatch.
EVALUATORS: Dict[Op, Evaluator] = {
    Op.ADD: _int_op(operator.add),
    Op.SUB: _int_op(operator.sub),
    Op.AND: _int_op(lambda a, b: int(a) & int(b)),
    Op.OR: _int_op(lambda a, b: int(a) | int(b)),
    Op.XOR: _int_op(lambda a, b: int(a) ^ int(b)),
    Op.SLL: _int_op(lambda a, b: int(a) << (int(b) & 63)),
    Op.SRL: _int_op(lambda a, b: (int(a) & _MASK64) >> (int(b) & 63)),
    Op.SLT: _int_op(lambda a, b: int(a < b)),
    Op.MUL: _int_op(lambda a, b: int(a) * int(b)),
    Op.ADDI: _imm_op(operator.add),
    Op.ANDI: _imm_op(lambda a, imm: int(a) & imm),
    Op.ORI: _imm_op(lambda a, imm: int(a) | imm),
    Op.XORI: _imm_op(lambda a, imm: int(a) ^ imm),
    Op.SLLI: _imm_op(lambda a, imm: int(a) << (imm & 63)),
    Op.SRLI: _imm_op(lambda a, imm: (int(a) & _MASK64) >> (imm & 63)),
    Op.SLTI: _imm_op(lambda a, imm: int(a < imm)),
    Op.LUI: lambda inst, operands, fflags: ExecResult(
        value=_to_signed(inst.imm << 12)),
    Op.DIV: _div,
    Op.REM: _rem,

    Op.FADD: _fp_op(operator.add),
    Op.FSUB: _fp_op(operator.sub),
    Op.FMUL: _fp_op(operator.mul),
    Op.FMADD: _fp_op(lambda a, b, c: a * b + c),
    Op.FDIV: _fdiv,
    Op.FSQRT: _fp_op(lambda a: math.sqrt(max(a, 0.0))),
    Op.FMIN: _fp_op(min),
    Op.FMAX: _fp_op(max),
    Op.FEQ: _fp_op(lambda a, b: int(a == b)),
    Op.FLT: _fp_op(lambda a, b: int(a < b)),
    Op.FLE: _fp_op(lambda a, b: int(a <= b)),
    Op.FCVT_W_D: _fp_op(int),
    Op.FCVT_D_W: _fp_op(float),
    Op.FMV: _fp_op(lambda a: a),

    Op.LW: _load, Op.LD: _load, Op.FLD: _load,
    Op.SW: _store, Op.SD: _store, Op.FSD: _store, Op.AMOADD: _store,

    Op.BEQ: _branch(operator.eq),
    Op.BNE: _branch(operator.ne),
    Op.BLT: _branch(operator.lt),
    Op.BGE: _branch(operator.ge),
    Op.JAL: lambda inst, operands, fflags: ExecResult(
        value=inst.next_addr, taken=True, target=inst.imm),
    Op.JALR: lambda inst, operands, fflags: ExecResult(
        value=inst.next_addr, taken=True,
        target=(int(operands[0]) + inst.imm) & ~1),

    Op.FRFLAGS: _read_fflags, Op.FSFLAGS: _read_fflags,
    Op.CSRRW: _read_fflags,

    Op.NOP: _no_result, Op.HALT: _no_result, Op.FENCE: _no_result,
    Op.SRET: _no_result, Op.ECALL: _no_result,
}


def evaluate(inst: "Instruction", operands: tuple,
             fflags: int = 0) -> ExecResult:
    """Functionally execute *inst* given its source *operands*.

    *operands* are the values of ``inst.sources`` in order.  *fflags* is
    the current floating-point status CSR value (read by ``frflags``).
    """
    return inst.evaluator(inst, operands, fflags)
