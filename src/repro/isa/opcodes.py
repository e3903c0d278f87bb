"""Opcode definitions for the RISC-V-flavoured ISA used by the simulator.

The paper evaluates TIP on a RISC-V BOOM core.  We model a compact subset
of RV64IMAFD plus the CSR instructions the Imagick case study hinges on
(``frflags``/``fsflags``).  Each opcode carries static metadata: which
execution unit it needs, its execution latency, and behavioural flags
(branch, memory, serializing, flush-on-commit) that the out-of-order core
and the profilers consult.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Unit(enum.Enum):
    """Execution unit classes, matching the BOOM issue queues of Table 1."""

    INT = "int"
    MEM = "mem"
    FP = "fp"
    BRANCH = "branch"
    SYSTEM = "system"


class Kind(enum.Enum):
    """Coarse behavioural class of an opcode."""

    ALU = "alu"
    MUL = "mul"
    DIV = "div"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    JUMP = "jump"
    CALL = "call"
    RETURN = "return"
    FP_ALU = "fp_alu"
    FP_DIV = "fp_div"
    CSR = "csr"
    FENCE = "fence"
    ATOMIC = "atomic"
    NOP = "nop"
    HALT = "halt"
    SRET = "sret"


@dataclass(frozen=True)
class OpcodeInfo:
    """Static metadata attached to every opcode."""

    mnemonic: str
    unit: Unit
    kind: Kind
    latency: int
    #: Instruction flushes the pipeline when it commits (e.g. CSR writes on
    #: BOOM, which does not rename status registers -- see Section 6).
    flushes_on_commit: bool = False
    #: Instruction requires the ROB to drain before dispatch and blocks
    #: dispatch until it commits (fences, atomics -- see Section 2.2).
    serializing: bool = False
    #: Number of register sources consumed (for operand decoding).
    num_sources: int = 2
    #: Writes an integer destination register.
    writes_int: bool = False
    #: Writes a floating-point destination register.
    writes_fp: bool = False


class Op(enum.Enum):
    """All opcodes understood by the assembler and the core."""

    # Integer ALU.
    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SLL = "sll"
    SRL = "srl"
    SLT = "slt"
    ADDI = "addi"
    ANDI = "andi"
    ORI = "ori"
    XORI = "xori"
    SLLI = "slli"
    SRLI = "srli"
    SLTI = "slti"
    LUI = "lui"
    MUL = "mul"
    DIV = "div"
    REM = "rem"

    # Floating point.
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FMADD = "fmadd"
    FDIV = "fdiv"
    FSQRT = "fsqrt"
    FMIN = "fmin"
    FMAX = "fmax"
    FEQ = "feq"
    FLT = "flt"
    FLE = "fle"
    FCVT_W_D = "fcvt.w.d"
    FCVT_D_W = "fcvt.d.w"
    FMV = "fmv"

    # Memory.
    LW = "lw"
    LD = "ld"
    FLD = "fld"
    SW = "sw"
    SD = "sd"
    FSD = "fsd"

    # Control flow.
    BEQ = "beq"
    BNE = "bne"
    BLT = "blt"
    BGE = "bge"
    JAL = "jal"
    JALR = "jalr"

    # CSR accesses (flush-on-commit on BOOM).
    FRFLAGS = "frflags"
    FSFLAGS = "fsflags"
    CSRRW = "csrrw"

    # Serializing.
    FENCE = "fence"
    AMOADD = "amoadd"

    # System.
    NOP = "nop"
    HALT = "halt"
    SRET = "sret"
    ECALL = "ecall"


def _info(mnemonic, unit, kind, latency, **kwargs):
    return OpcodeInfo(mnemonic, unit, kind, latency, **kwargs)


#: Latencies follow common BOOM functional-unit configurations: single-cycle
#: integer ALU, pipelined 3-cycle multiply, unpipelined ~16-cycle divide,
#: 4-cycle pipelined FP, long-latency FP divide/sqrt.
OPCODE_TABLE: dict = {
    Op.ADD: _info("add", Unit.INT, Kind.ALU, 1, writes_int=True),
    Op.SUB: _info("sub", Unit.INT, Kind.ALU, 1, writes_int=True),
    Op.AND: _info("and", Unit.INT, Kind.ALU, 1, writes_int=True),
    Op.OR: _info("or", Unit.INT, Kind.ALU, 1, writes_int=True),
    Op.XOR: _info("xor", Unit.INT, Kind.ALU, 1, writes_int=True),
    Op.SLL: _info("sll", Unit.INT, Kind.ALU, 1, writes_int=True),
    Op.SRL: _info("srl", Unit.INT, Kind.ALU, 1, writes_int=True),
    Op.SLT: _info("slt", Unit.INT, Kind.ALU, 1, writes_int=True),
    Op.ADDI: _info("addi", Unit.INT, Kind.ALU, 1, num_sources=1,
                   writes_int=True),
    Op.ANDI: _info("andi", Unit.INT, Kind.ALU, 1, num_sources=1,
                   writes_int=True),
    Op.ORI: _info("ori", Unit.INT, Kind.ALU, 1, num_sources=1,
                  writes_int=True),
    Op.XORI: _info("xori", Unit.INT, Kind.ALU, 1, num_sources=1,
                   writes_int=True),
    Op.SLLI: _info("slli", Unit.INT, Kind.ALU, 1, num_sources=1,
                   writes_int=True),
    Op.SRLI: _info("srli", Unit.INT, Kind.ALU, 1, num_sources=1,
                   writes_int=True),
    Op.SLTI: _info("slti", Unit.INT, Kind.ALU, 1, num_sources=1,
                   writes_int=True),
    Op.LUI: _info("lui", Unit.INT, Kind.ALU, 1, num_sources=0,
                  writes_int=True),
    Op.MUL: _info("mul", Unit.INT, Kind.MUL, 3, writes_int=True),
    Op.DIV: _info("div", Unit.INT, Kind.DIV, 16, writes_int=True),
    Op.REM: _info("rem", Unit.INT, Kind.DIV, 16, writes_int=True),

    Op.FADD: _info("fadd", Unit.FP, Kind.FP_ALU, 4, writes_fp=True),
    Op.FSUB: _info("fsub", Unit.FP, Kind.FP_ALU, 4, writes_fp=True),
    Op.FMUL: _info("fmul", Unit.FP, Kind.FP_ALU, 4, writes_fp=True),
    Op.FMADD: _info("fmadd", Unit.FP, Kind.FP_ALU, 4, num_sources=3,
                    writes_fp=True),
    Op.FDIV: _info("fdiv", Unit.FP, Kind.FP_DIV, 13, writes_fp=True),
    Op.FSQRT: _info("fsqrt", Unit.FP, Kind.FP_DIV, 20, num_sources=1,
                    writes_fp=True),
    Op.FMIN: _info("fmin", Unit.FP, Kind.FP_ALU, 2, writes_fp=True),
    Op.FMAX: _info("fmax", Unit.FP, Kind.FP_ALU, 2, writes_fp=True),
    Op.FEQ: _info("feq", Unit.FP, Kind.FP_ALU, 2, writes_int=True),
    Op.FLT: _info("flt", Unit.FP, Kind.FP_ALU, 2, writes_int=True),
    Op.FLE: _info("fle", Unit.FP, Kind.FP_ALU, 2, writes_int=True),
    Op.FCVT_W_D: _info("fcvt.w.d", Unit.FP, Kind.FP_ALU, 2, num_sources=1,
                       writes_int=True),
    Op.FCVT_D_W: _info("fcvt.d.w", Unit.FP, Kind.FP_ALU, 2, num_sources=1,
                       writes_fp=True),
    Op.FMV: _info("fmv", Unit.FP, Kind.FP_ALU, 1, num_sources=1,
                  writes_fp=True),

    Op.LW: _info("lw", Unit.MEM, Kind.LOAD, 1, num_sources=1, writes_int=True),
    Op.LD: _info("ld", Unit.MEM, Kind.LOAD, 1, num_sources=1, writes_int=True),
    Op.FLD: _info("fld", Unit.MEM, Kind.LOAD, 1, num_sources=1,
                  writes_fp=True),
    Op.SW: _info("sw", Unit.MEM, Kind.STORE, 1, num_sources=2),
    Op.SD: _info("sd", Unit.MEM, Kind.STORE, 1, num_sources=2),
    Op.FSD: _info("fsd", Unit.MEM, Kind.STORE, 1, num_sources=2),

    Op.BEQ: _info("beq", Unit.BRANCH, Kind.BRANCH, 1),
    Op.BNE: _info("bne", Unit.BRANCH, Kind.BRANCH, 1),
    Op.BLT: _info("blt", Unit.BRANCH, Kind.BRANCH, 1),
    Op.BGE: _info("bge", Unit.BRANCH, Kind.BRANCH, 1),
    Op.JAL: _info("jal", Unit.BRANCH, Kind.CALL, 1, num_sources=0,
                  writes_int=True),
    Op.JALR: _info("jalr", Unit.BRANCH, Kind.RETURN, 1, num_sources=1,
                   writes_int=True),

    Op.FRFLAGS: _info("frflags", Unit.SYSTEM, Kind.CSR, 1, num_sources=0,
                      writes_int=True, flushes_on_commit=True),
    Op.FSFLAGS: _info("fsflags", Unit.SYSTEM, Kind.CSR, 1, num_sources=1,
                      flushes_on_commit=True),
    Op.CSRRW: _info("csrrw", Unit.SYSTEM, Kind.CSR, 1, num_sources=1,
                    writes_int=True, flushes_on_commit=True),

    Op.FENCE: _info("fence", Unit.SYSTEM, Kind.FENCE, 1, num_sources=0,
                    serializing=True),
    Op.AMOADD: _info("amoadd", Unit.MEM, Kind.ATOMIC, 1, num_sources=2,
                     writes_int=True, serializing=True),

    Op.NOP: _info("nop", Unit.INT, Kind.NOP, 1, num_sources=0),
    Op.HALT: _info("halt", Unit.SYSTEM, Kind.HALT, 1, num_sources=0),
    Op.SRET: _info("sret", Unit.SYSTEM, Kind.SRET, 1, num_sources=0,
                   flushes_on_commit=True),
    Op.ECALL: _info("ecall", Unit.SYSTEM, Kind.CSR, 1, num_sources=0,
                    flushes_on_commit=True),
}

#: Mnemonic -> opcode, used by the assembler.
MNEMONICS: dict = {info.mnemonic: op for op, info in OPCODE_TABLE.items()}

#: Kinds that terminate a basic block.
CONTROL_KINDS = frozenset({
    Kind.BRANCH, Kind.JUMP, Kind.CALL, Kind.RETURN, Kind.HALT, Kind.SRET,
})


def info_for(op: Op) -> OpcodeInfo:
    """Return the :class:`OpcodeInfo` for *op*."""
    return OPCODE_TABLE[op]
