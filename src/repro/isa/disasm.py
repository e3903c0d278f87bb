"""Disassembler: render instructions back to assembly text.

The inverse of the assembler, used by reports (annotated profiles) and
by the round-trip property tests.  ``disassemble(assemble(text))``
re-assembles to an identical program.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .instruction import Instruction, Register
from .opcodes import Kind, Op
from .program import Program

_IMMEDIATE_OPS = frozenset({
    Op.ADDI, Op.ANDI, Op.ORI, Op.XORI, Op.SLLI, Op.SRLI, Op.SLTI, Op.LUI,
})


def format_instruction(inst: Instruction,
                       labels: Optional[Dict[int, str]] = None) -> str:
    """One instruction as assembly text (without its address)."""
    op = inst.op
    info = inst.info
    mnemonic = info.mnemonic
    labels = labels or {}

    def target() -> str:
        return labels.get(inst.imm, f"{inst.imm:#x}")

    if inst.kind is Kind.ATOMIC:
        return (f"{mnemonic} {Register.name(inst.rd)}, "
                f"{Register.name(inst.sources[1])}, "
                f"{inst.imm}({Register.name(inst.sources[0])})")
    if inst.is_load:
        return (f"{mnemonic} {Register.name(inst.rd)}, "
                f"{inst.imm}({Register.name(inst.sources[0])})")
    if inst.is_store:
        return (f"{mnemonic} {Register.name(inst.sources[1])}, "
                f"{inst.imm}({Register.name(inst.sources[0])})")
    if inst.is_branch:
        return (f"{mnemonic} {Register.name(inst.sources[0])}, "
                f"{Register.name(inst.sources[1])}, {target()}")
    if inst.kind is Kind.CALL:
        return f"{mnemonic} {Register.name(inst.rd)}, {target()}"
    if inst.kind is Kind.RETURN:
        return (f"{mnemonic} {Register.name(inst.rd)}, "
                f"{Register.name(inst.sources[0])}, {inst.imm}")

    parts: List[str] = []
    if info.writes_int or info.writes_fp:
        parts.append(Register.name(inst.rd))
    parts.extend(Register.name(reg) for reg in inst.sources)
    if op in _IMMEDIATE_OPS:
        parts.append(str(inst.imm))
    operands = ", ".join(parts)
    return f"{mnemonic} {operands}" if operands else mnemonic


def disassemble(program: Program, with_addresses: bool = False) -> str:
    """The whole program as assembly text.

    The output re-assembles (at the same base address) into a program
    with identical instructions, functions, labels, entry point and
    data.
    """
    addr_labels: Dict[int, str] = {}
    for name, addr in program.labels.items():
        addr_labels.setdefault(addr, name)

    func_starts = {f.lo: f.name for f in program.functions}
    entry_label = addr_labels.get(program.entry)
    lines: List[str] = []
    if entry_label:
        lines.append(f".entry {entry_label}")
    for inst in program.instructions:
        if inst.addr in func_starts:
            lines.append(f".func {func_starts[inst.addr]}")
        if inst.addr in addr_labels:
            lines.append(f"{addr_labels[inst.addr]}:")
        text = format_instruction(inst, addr_labels)
        prefix = f"{inst.addr:#08x}:  " if with_addresses else "    "
        lines.append(prefix + text)
    for addr in sorted(program.data):
        lines.append(f".data {addr:#x} {program.data[addr]}")
    return "\n".join(lines) + "\n"
