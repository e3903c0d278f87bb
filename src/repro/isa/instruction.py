"""Static instruction model.

A :class:`Instruction` is one *static* instruction at a fixed address in a
program.  The out-of-order core creates lightweight *dynamic* instances
(micro-ops) that reference back to the static instruction; profilers always
attribute time to static instruction addresses, exactly as a hardware
profiler reports PC values.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .opcodes import Kind, Op, info_for
from .semantics import EVALUATORS

#: Byte size of every instruction (RV64 without the C extension).
INSTRUCTION_BYTES = 4


class Register:
    """Architectural register name helpers.

    Registers are encoded as small integers: ``0..31`` are the integer
    registers ``x0..x31`` (with ``x0`` hard-wired to zero) and ``32..63``
    are the floating-point registers ``f0..f31``.
    """

    NUM_INT = 32
    NUM_FP = 32
    TOTAL = NUM_INT + NUM_FP

    @staticmethod
    def x(index: int) -> int:
        if not 0 <= index < Register.NUM_INT:
            raise ValueError(f"integer register index out of range: {index}")
        return index

    @staticmethod
    def f(index: int) -> int:
        if not 0 <= index < Register.NUM_FP:
            raise ValueError(f"fp register index out of range: {index}")
        return Register.NUM_INT + index

    @staticmethod
    def is_fp(reg: int) -> bool:
        return reg >= Register.NUM_INT

    @staticmethod
    def name(reg: int) -> str:
        if reg < Register.NUM_INT:
            return f"x{reg}"
        return f"f{reg - Register.NUM_INT}"

    @staticmethod
    def parse(text: str) -> int:
        text = text.strip().lower()
        if len(text) < 2 or text[0] not in "xf":
            raise ValueError(f"bad register name: {text!r}")
        index = int(text[1:])
        return Register.x(index) if text[0] == "x" else Register.f(index)


class Instruction:
    """One static instruction.

    Parameters
    ----------
    op:
        The opcode.
    rd:
        Destination register (encoded), or ``None``.
    sources:
        Tuple of encoded source registers.
    imm:
        Immediate value; for loads/stores this is the address offset, for
        branches/jumps the *resolved* target address (the assembler
        resolves labels before constructing instructions).
    addr:
        The instruction's address in the text segment.

    An instruction is decoded once, here: every opcode-derived field
    (``info``, ``unit``, ``kind``, ``latency``, the ``is_*`` flags,
    ``flushes_on_commit``, ``next_addr`` and the opcode's ``evaluator``)
    is a plain attribute, which the stepped core reads every cycle.
    That is sound because an instruction is never modified after
    construction: a rewrite builds a new one.
    """

    __slots__ = ("op", "rd", "sources", "imm", "addr", "info", "unit",
                 "kind", "latency", "is_load", "is_store", "is_mem",
                 "is_branch", "is_control", "is_call", "is_return",
                 "is_serializing", "flushes_on_commit", "is_halt",
                 "evaluator", "next_addr")

    def __init__(self, op: Op, rd: Optional[int] = None,
                 sources: Tuple[int, ...] = (), imm: int = 0,
                 addr: int = 0):
        self.op = op
        self.rd = rd
        self.sources = sources
        self.imm = imm
        self.addr = addr
        (self.info, self.unit, self.kind, self.latency, self.is_load,
         self.is_store, self.is_mem, self.is_branch, self.is_control,
         self.is_call, self.is_return, self.is_serializing,
         self.flushes_on_commit, self.is_halt,
         self.evaluator) = _DECODED[op]
        self.next_addr = addr + INSTRUCTION_BYTES

    def __reduce__(self):
        # Pickle by constructor arguments: the decoded fields (the
        # evaluator among them) are rebuilt, never serialized.
        return (Instruction, (self.op, self.rd, self.sources, self.imm,
                              self.addr))

    @property
    def is_jump(self) -> bool:
        """Unconditional direct jump (``jal`` with a discarded link)."""
        if self.kind is Kind.JUMP:
            return True
        return self.kind is Kind.CALL and (self.rd is None or self.rd == 0)

    @property
    def can_fall_through(self) -> bool:
        """May execution continue at ``next_addr`` past this instruction?

        True for straight-line code, conditional branches (not-taken
        path) and calls (the callee eventually returns here); false for
        unconditional jumps, returns, ``halt`` and ``sret``.
        """
        kind = self.kind
        if kind in (Kind.HALT, Kind.SRET, Kind.JUMP):
            return False
        if kind is Kind.CALL:
            return not self.is_jump
        if kind is Kind.RETURN:
            # ``jalr`` with a live link register is an indirect call and
            # resumes here; ``jalr x0, ...`` is a return and does not.
            return self.rd is not None and self.rd != 0
        return True

    def static_targets(self) -> Tuple[int, ...]:
        """Statically-known control-transfer targets.

        Branch and ``jal`` targets are label immediates resolved by the
        assembler; indirect jumps (``jalr``) have none.
        """
        if self.kind in (Kind.BRANCH, Kind.JUMP, Kind.CALL):
            return (self.imm,)
        return ()

    # -- misc ----------------------------------------------------------------

    def __repr__(self) -> str:
        ops = ", ".join(Register.name(s) for s in self.sources)
        rd = Register.name(self.rd) if self.rd is not None else "-"
        return (f"<{self.addr:#x}: {self.op.value} rd={rd} src=({ops}) "
                f"imm={self.imm}>")


def _decode(op: Op) -> tuple:
    """The opcode-derived fields of :class:`Instruction`, in slot order."""
    info = info_for(op)
    kind = info.kind
    is_load = kind is Kind.LOAD or kind is Kind.ATOMIC
    is_store = kind is Kind.STORE or kind is Kind.ATOMIC
    is_branch = kind is Kind.BRANCH  # conditional branches only
    # Any instruction that can change control flow.
    is_control = kind in (Kind.BRANCH, Kind.JUMP, Kind.CALL, Kind.RETURN,
                          Kind.SRET)
    return (info, info.unit, kind, info.latency, is_load, is_store,
            is_load or is_store, is_branch, is_control, kind is Kind.CALL,
            kind is Kind.RETURN, info.serializing, info.flushes_on_commit,
            kind is Kind.HALT, EVALUATORS[op])


_DECODED = {op: _decode(op) for op in Op}
