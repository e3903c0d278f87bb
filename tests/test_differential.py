"""Differential testing: the OoO core versus the reference interpreter.

Randomly generated programs run on both executors; final architectural
state (integer registers, memory, executed instruction counts) must
match exactly.  This exercises the whole speculative machinery --
forwarding, squashes, replays, exceptions -- against a trivially correct
sequential model.
"""

import random

import pytest

from repro.cpu.config import CoreConfig
from repro.cpu.machine import Machine
from repro.isa.assembler import assemble
from repro.isa.interpreter import run_reference

DATA_BASE = 0x2000
DATA_WORDS = 64


def _generate_program(rng: random.Random, blocks: int = 4,
                      block_len: int = 6) -> str:
    """A random but guaranteed-to-terminate program.

    Structure: an outer counted loop over a few straight-line blocks with
    data-dependent skips inside.  Registers x5..x15 are general; x1/x2
    are reserved links; x20 is the loop counter.
    """
    lines = [".func main", "main:"]
    for i in range(8):
        lines.append(f"    addi x{5 + i}, x0, {rng.randint(-64, 64)}")
    lines.append(f"    addi x20, x0, {rng.randint(4, 12)}")
    lines.append("outer:")
    for b in range(blocks):
        lines.append(f"block{b}:")
        for _ in range(block_len):
            choice = rng.random()
            rd = rng.randint(5, 15)
            rs1 = rng.randint(5, 15)
            rs2 = rng.randint(5, 15)
            if choice < 0.35:
                op = rng.choice(["add", "sub", "xor", "and", "or", "mul"])
                lines.append(f"    {op}  x{rd}, x{rs1}, x{rs2}")
            elif choice < 0.5:
                lines.append(f"    addi x{rd}, x{rs1}, "
                             f"{rng.randint(-32, 32)}")
            elif choice < 0.8:
                # Index and displacement each span half the data words,
                # so every access stays inside the premapped region.
                offset = DATA_BASE + 8 * rng.randint(0, DATA_WORDS // 2 - 1)
                lines.append(f"    andi x16, x{rs1}, "
                             f"{8 * (DATA_WORDS // 2 - 1)}")
                if choice < 0.65:
                    lines.append(f"    ld   x{rd}, {offset}(x16)")
                else:
                    lines.append(f"    sd   x{rs2}, {offset}(x16)")
            elif choice < 0.9:
                # A data-dependent forward skip within the block.
                lines.append(f"    andi x17, x{rs1}, 1")
                lines.append(f"    beq  x17, x0, skip{b}_{len(lines)}")
                lines.append(f"    addi x{rd}, x{rd}, 1")
                lines.append(f"skip{b}_{len(lines) - 2}:")
            else:
                lines.append(f"    div  x{rd}, x{rs1}, x{rs2}")
    lines.append("    addi x20, x20, -1")
    lines.append("    bne  x20, x0, outer")
    lines.append("    halt")
    return "\n".join(lines) + "\n"


def _compare(seed: int, config=None) -> None:
    rng = random.Random(seed)
    source = _generate_program(rng)
    program = assemble(source, name=f"fuzz-{seed}")
    for i in range(DATA_WORDS):
        program.data[DATA_BASE + 8 * i] = rng.randint(-100, 100)

    reference = run_reference(program)

    machine = Machine(program, config,
                      premapped_data=[(DATA_BASE,
                                       DATA_BASE + 8 * DATA_WORDS)])
    machine.run(2_000_000)
    core = machine.core

    for reg in range(3, 21):
        assert core.regs[reg] == reference.regs[reg], \
            f"seed {seed}: x{reg} = {core.regs[reg]} " \
            f"vs reference {reference.regs[reg]}\n{source}"
    for addr in range(DATA_BASE, DATA_BASE + 8 * DATA_WORDS, 8):
        assert core.memory.get(addr, 0) == reference.memory.get(addr, 0), \
            f"seed {seed}: mem[{addr:#x}]"
    # The core committed exactly the dynamic instruction stream.
    assert machine.stats.committed == reference.instructions_executed


@pytest.mark.parametrize("seed", range(12))
def test_differential_random_programs(seed):
    _compare(seed)


@pytest.mark.parametrize("seed", range(12, 18))
def test_differential_tiny_core(seed):
    """The 2-wide tiny core with small structures must agree too."""
    _compare(seed, CoreConfig.tiny())


def test_differential_with_sampling_interrupts():
    """Interrupt-driven sample collection must not perturb results."""
    rng = random.Random(99)
    source = _generate_program(rng)
    program = assemble(source, name="fuzz-intr")
    for i in range(DATA_WORDS):
        program.data[DATA_BASE + 8 * i] = rng.randint(-100, 100)
    reference = run_reference(program)
    machine = Machine(program,
                      premapped_data=[(DATA_BASE,
                                       DATA_BASE + 8 * DATA_WORDS)],
                      perf_sampling=(257, 6))
    machine.run(2_000_000)
    assert machine.stats.sampling_interrupts > 0
    for reg in range(3, 21):
        assert machine.core.regs[reg] == reference.regs[reg], reg
