"""A simple sequential reference interpreter.

Executes a program one instruction at a time with no timing model.  Its
final architectural state (registers, memory, fflags) is the golden
reference the out-of-order core must match: the differential tests run
randomly generated programs through both and compare.  `frflags`,
`fsflags` and `fence` are architecturally transparent here (they only
have timing effects on the core), and unmapped memory reads return 0 --
matching a machine whose kernel installs zero-filled pages on demand.
"""

from __future__ import annotations

from typing import Dict, List

from .instruction import Register
from .opcodes import Op
from .program import Program
from .semantics import evaluate


class InterpreterError(RuntimeError):
    """Raised when the interpreted program misbehaves."""


class Interpreter:
    """Architectural-level executor for a :class:`Program`."""

    def __init__(self, program: Program):
        self.program = program
        self.regs: List = [0] * Register.TOTAL
        self.memory: Dict[int, float] = dict(program.data)
        self.fflags = 0
        self.pc = program.entry
        self.halted = False
        self.instructions_executed = 0

    def _read(self, reg: int):
        return 0 if reg == 0 else self.regs[reg]

    def step(self) -> None:
        inst = self.program.fetch(self.pc)
        if inst is None:
            raise InterpreterError(f"fell off text at {self.pc:#x}")
        operands = tuple(self._read(reg) for reg in inst.sources)
        result = evaluate(inst, operands, self.fflags)
        self.instructions_executed += 1

        if inst.is_halt:
            self.halted = True
            return
        if inst.op is Op.FSFLAGS:
            self.fflags = int(operands[0])

        if inst.is_load and not inst.is_store:  # plain load
            value = self.memory.get(result.eff_addr, 0)
            if inst.rd is not None and inst.rd != 0:
                self.regs[inst.rd] = value
        elif inst.is_store and not inst.is_load:  # plain store
            self.memory[result.eff_addr] = result.store_value
        elif inst.is_load and inst.is_store:  # atomic
            old = self.memory.get(result.eff_addr, 0)
            self.memory[result.eff_addr] = old + operands[1]
            if inst.rd is not None and inst.rd != 0:
                self.regs[inst.rd] = old
        elif inst.rd is not None and inst.rd != 0 and \
                result.value is not None:
            self.regs[inst.rd] = result.value

        if inst.is_control and result.taken:
            self.pc = result.target
        else:
            self.pc = inst.next_addr

    def run(self, max_instructions: int = 1_000_000) -> "Interpreter":
        while not self.halted:
            if self.instructions_executed >= max_instructions:
                raise InterpreterError(
                    f"did not halt within {max_instructions} instructions")
            self.step()
        return self


def run_reference(program: Program,
                  max_instructions: int = 1_000_000) -> Interpreter:
    """Run *program* to completion on the reference interpreter."""
    return Interpreter(program).run(max_instructions)
