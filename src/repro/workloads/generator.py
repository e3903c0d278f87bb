"""Synthetic workload generator.

Workloads are assembled from parameterised *kernels*, each a function in
the final program that stresses one microarchitectural behaviour: wide
commit ILP, serial-dependence ALU stalls, streaming and pointer-chasing
load stalls, store-buffer pressure, data-dependent branch mispredicts,
CSR pipeline flushes, instruction-cache thrashing, page faults and
serialized instructions.  Mixing kernels with different iteration counts
reproduces the Compute / Flush / Stall cycle-stack classes of Figure 7.

Calling convention: ``main`` calls kernels through ``x1``; kernels call
sub-functions through ``x2``.  Kernels may clobber ``x5..x27`` and
``f1..f15``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Tuple

from ..isa.assembler import assemble
from ..isa.program import Program, TEXT_BASE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..lint.linter import LintReport


@dataclass
class Kernel:
    """One generated kernel: a function plus its data and page mapping."""

    name: str
    text: str
    #: Word address -> initial value, installed after assembly.
    data: Dict[int, float] = field(default_factory=dict)
    #: Data ranges resident at boot (everything else faults on touch).
    premapped: List[Tuple[int, int]] = field(default_factory=list)


class WorkloadLintError(ValueError):
    """A generated workload failed the linter's structural self-check."""


@dataclass
class Workload:
    """A ready-to-run benchmark."""

    name: str
    program: Program
    premapped: List[Tuple[int, int]]
    description: str = ""

    def lint(self) -> "LintReport":
        """Run the full linter over this workload's program (with the
        premapped regions declared legal for the memory-safety rules)."""
        from ..lint.linter import lint_program
        return lint_program(self.program, regions=tuple(self.premapped))

    def __repr__(self) -> str:
        return f"<workload {self.name}: {len(self.program)} insts>"


def self_check_program(program: Program,
                       regions: Tuple[Tuple[int, int], ...] = ()) -> None:
    """Raise :class:`WorkloadLintError` if *program* fails the build
    gate: the structural lint rules (unreachable blocks, fall-through
    off text, overlapping function symbols) plus const-proven
    unreachable code (L011) and the abstract-interpretation proofs
    (out-of-bounds/misaligned access, stack discipline, L014..L017) --
    any diagnostic from that set fails the build, regardless of
    severity.  *regions* are premapped byte ranges the memory-safety
    rules must treat as legally mapped.

    Generators call this on every program they emit, so a kernel-emitter
    bug shows up as a lint report at build time instead of a bogus
    profile after minutes of simulation.
    """
    from ..lint.linter import Linter
    report = Linter.self_check().run(program, regions=regions)
    if report.diagnostics:
        raise WorkloadLintError(
            f"generated program {program.name!r} failed the lint "
            f"self-check:\n{report.render()}")


def _ret(link: str = "x1") -> str:
    return f"    jalr x0, {link}, 0\n"


# ---------------------------------------------------------------------------
# Kernel emitters
# ---------------------------------------------------------------------------

def k_int_ilp(name: str, iters: int, width: int = 6) -> Kernel:
    """Independent integer chains: sustains full commit width.

    A predictable skip branch (taken every fourth iteration) keeps commit
    groups from phase-locking onto the loop body, as real compute loops
    with internal control flow do.
    """
    body = [f".func {name}", f"{name}:", f"    addi x6, x0, {iters}",
            f"{name}_L:"]
    for i in range(width):
        reg = 7 + i
        body.append(f"    add  x{reg}, x{reg}, x6")
    body += ["    andi x15, x6, 3",
             f"    bne  x15, x0, {name}_S",
             "    xor  x7, x7, x8",
             "    add  x9, x9, x7",
             f"{name}_S:",
             "    addi x6, x6, -1", f"    bne  x6, x0, {name}_L", _ret()]
    return Kernel(name, "\n".join(body) + "\n")


def k_fp_ilp(name: str, iters: int, width: int = 4) -> Kernel:
    """Independent floating-point chains (FP issue-width bound)."""
    body = [f".func {name}", f"{name}:", f"    addi x6, x0, {iters}",
            f"{name}_L:"]
    for i in range(width):
        op = "fadd" if i % 2 == 0 else "fmul"
        reg = 1 + i
        body.append(f"    {op} f{reg}, f{reg}, f{8 + (i % 4)}")
    body += ["    andi x15, x6, 3",
             f"    bne  x15, x0, {name}_S",
             "    fadd f6, f6, f1",
             f"{name}_S:",
             "    addi x6, x6, -1", f"    bne  x6, x0, {name}_L", _ret()]
    return Kernel(name, "\n".join(body) + "\n")


def k_dep_chain(name: str, iters: int, muls: int = 3,
                use_div: bool = False) -> Kernel:
    """A serial multiply (and optionally divide) chain: ALU stalls."""
    body = [f".func {name}", f"{name}:", f"    addi x6, x0, {iters}",
            "    addi x7, x0, 3", f"{name}_L:"]
    for _ in range(muls):
        body.append("    mul  x7, x7, x7")
        body.append("    ori  x7, x7, 3")
    if use_div:
        body.append("    div  x8, x7, x6")
    body += ["    addi x6, x6, -1", f"    bne  x6, x0, {name}_L", _ret()]
    return Kernel(name, "\n".join(body) + "\n")


def k_fp_div(name: str, iters: int, divs: int = 2) -> Kernel:
    """Serial FP divides: long-latency FP ALU stalls."""
    body = [f".func {name}", f"{name}:", f"    addi x6, x0, {iters}",
            f"{name}_L:"]
    for _ in range(divs):
        body.append("    fdiv f1, f1, f9")
        body.append("    fadd f1, f1, f10")
    body += ["    addi x6, x6, -1", f"    bne  x6, x0, {name}_L", _ret()]
    return Kernel(name, "\n".join(body) + "\n")


def k_stream_load(name: str, iters: int, base: int, size: int,
                  stride: int = 8, fp: bool = False,
                  premap: bool = True) -> Kernel:
    """Streaming loads over a *size*-byte buffer (power of two)."""
    if size & (size - 1):
        raise ValueError("stream buffer size must be a power of two")
    mask = size - 1
    load = "fld  f1" if fp else "ld   x7"
    load2 = "fld  f2" if fp else "ld   x8"
    acc = ("    fadd f3, f3, f1\n    fadd f3, f3, f2\n" if fp
           else "    add  x9, x9, x7\n    add  x9, x9, x8\n")
    # The loads live in their own basic block behind a predictable branch,
    # like the control flow inside real loop nests -- this is what makes
    # LCI misattribute load stalls to the preceding block (Figure 9, lbm).
    text = f""".func {name}
{name}:
    addi x5, x0, 0
    addi x6, x0, {iters}
{name}_L:
    andi x15, x6, 3
    bne  x15, x0, {name}_B
    addi x10, x10, 1
    xor  x10, x10, x6
{name}_B:
    {load}, {base}(x5)
    {load2}, {base + 8}(x5)
{acc}    addi x5, x5, {stride}
    andi x5, x5, {mask}
    addi x6, x6, -1
    bne  x6, x0, {name}_L
{_ret()}"""
    premapped = [(base, base + size)] if premap else []
    return Kernel(name, text, premapped=premapped)


def k_pointer_chase(name: str, iters: int, base: int, entries: int,
                    seed: int = 12345, sequential: bool = False) -> Kernel:
    """Dependent loads through a permutation: no MLP at all.

    With *sequential* the chain walks the buffer in address order --
    still fully dependent, but next-line prefetching becomes effective
    (used by the prefetcher ablation).
    """
    rng = random.Random(seed)
    order = list(range(1, entries))
    if not sequential:
        rng.shuffle(order)
    # Build one cycle visiting every entry.
    data: Dict[int, float] = {}
    current = 0
    for nxt in order:
        data[base + 8 * current] = base + 8 * nxt
        current = nxt
    data[base + 8 * current] = base  # close the cycle
    text = f""".func {name}
{name}:
    addi x5, x0, {base}
    addi x6, x0, {iters}
{name}_L:
    addi x6, x6, -1
    andi x15, x6, 3
    bne  x15, x0, {name}_B
    addi x10, x10, 1
{name}_B:
    ld   x5, 0(x5)
    bne  x6, x0, {name}_L
{_ret()}"""
    return Kernel(name, text, data=data,
                  premapped=[(base, base + 8 * entries)])


def k_stream_store(name: str, iters: int, base: int, size: int,
                   stride: int = 16) -> Kernel:
    """Streaming stores: fills the store buffer, store stalls at commit."""
    if size & (size - 1):
        raise ValueError("store buffer size must be a power of two")
    mask = size - 1
    text = f""".func {name}
{name}:
    addi x5, x0, 0
    addi x6, x0, {iters}
    addi x7, x0, 42
{name}_L:
    sd   x7, {base}(x5)
    sd   x7, {base + 8}(x5)
    addi x5, x5, {stride}
    andi x5, x5, {mask}
    addi x6, x6, -1
    bne  x6, x0, {name}_L
{_ret()}"""
    return Kernel(name, text, premapped=[(base, base + size)])


def k_branchy(name: str, iters: int, base: int, entries: int = 1024,
              seed: int = 999, taken_bias: float = 0.5) -> Kernel:
    """Data-dependent branches on random data: mispredict flushes."""
    rng = random.Random(seed)
    data = {base + 8 * i: int(rng.random() < taken_bias)
            for i in range(entries)}
    mask = 8 * entries - 1
    text = f""".func {name}
{name}:
    addi x5, x0, 0
    addi x6, x0, {iters}
    addi x9, x0, 0
{name}_L:
    ld   x7, {base}(x5)
    beq  x7, x0, {name}_S
    addi x9, x9, 3
    xor  x9, x9, x7
{name}_S:
    addi x9, x9, 1
    addi x5, x5, 8
    andi x5, x5, {mask}
    addi x6, x6, -1
    bne  x6, x0, {name}_L
{_ret()}"""
    return Kernel(name, text, data=data,
                  premapped=[(base, base + 8 * entries)])


def k_csr_flush(name: str, iters: int, work: int = 2) -> Kernel:
    """frflags/fsflags around FP work: CSR pipeline flushes (Imagick)."""
    body = [f".func {name}", f"{name}:", f"    addi x6, x0, {iters}",
            f"{name}_L:", "    frflags x7"]
    for i in range(work):
        body.append(f"    fadd f{1 + i}, f{1 + i}, f9")
    body += ["    fsflags x7", "    addi x6, x6, -1",
             f"    bne  x6, x0, {name}_L", _ret()]
    return Kernel(name, "\n".join(body) + "\n")


def k_calls(name: str, iters: int, callees: int = 4,
            callee_work: int = 4) -> Kernel:
    """A loop of calls to small leaf functions through ``x2``."""
    body = [f".func {name}", f"{name}:", f"    addi x6, x0, {iters}",
            f"{name}_L:"]
    for i in range(callees):
        body.append(f"    jal  x2, {name}_c{i}")
    body += ["    addi x6, x6, -1", f"    bne  x6, x0, {name}_L", _ret()]
    for i in range(callees):
        body += [f".func {name}_c{i}", f"{name}_c{i}:"]
        for j in range(callee_work):
            body.append(f"    add  x{10 + (j % 6)}, x{10 + (j % 6)}, x6")
        body.append(_ret("x2").rstrip())
    return Kernel(name, "\n".join(body) + "\n")


def k_recursive(name: str, iters: int, depth: int = 12,
                work: int = 3) -> Kernel:
    """Recursive descent through a chain of functions.

    Exercises deep call/return chains: each level saves the caller's
    link register to memory, does a little work, recurses through
    ``x2``, and restores -- so the return-address stack sees real depth
    (like exchange2's recursive solver).
    """
    stack_base = 0x1C_0000
    body = [f".func {name}", f"{name}:", f"    addi x6, x0, {iters}",
            f"{name}_L:", f"    jal  x2, {name}_d0",
            "    addi x6, x6, -1", f"    bne  x6, x0, {name}_L", _ret()]
    for level in range(depth):
        save = stack_base + 8 * level
        body += [f".func {name}_d{level}", f"{name}_d{level}:",
                 f"    sd   x2, {save}(x0)"]
        for j in range(work):
            body.append(f"    add  x{10 + (j % 6)}, x{10 + (j % 6)}, x6")
        if level + 1 < depth:
            body.append(f"    jal  x2, {name}_d{level + 1}")
        body += [f"    ld   x2, {save}(x0)", _ret("x2").rstrip()]
    return Kernel(name, "\n".join(body) + "\n",
                  premapped=[(stack_base, stack_base + 8 * depth)])


def k_icache(name: str, iters: int, funcs: int = 24,
             insts_per_func: int = 420, seed: int = 7) -> Kernel:
    """A code footprint exceeding the L1 I-cache, visited in a shuffled
    order: front-end drains."""
    rng = random.Random(seed)
    order = list(range(funcs)) * 2
    rng.shuffle(order)
    body = [f".func {name}", f"{name}:", f"    addi x6, x0, {iters}",
            f"{name}_L:"]
    for i in order:
        body.append(f"    jal  x2, {name}_f{i}")
    body += ["    addi x6, x6, -1", f"    bne  x6, x0, {name}_L", _ret()]
    for i in range(funcs):
        body += [f".func {name}_f{i}", f"{name}_f{i}:"]
        for j in range(insts_per_func):
            body.append(f"    add  x{10 + (j % 8)}, x{10 + (j % 8)}, x5")
        body.append(_ret("x2").rstrip())
    return Kernel(name, "\n".join(body) + "\n")


def k_fault(name: str, pages: int, base: int,
            touches_per_page: int = 1) -> Kernel:
    """First-touch page faults over *pages* unmapped pages."""
    body = [f".func {name}", f"{name}:", "    addi x5, x0, 0",
            f"    addi x6, x0, {pages}", f"{name}_L:"]
    for i in range(touches_per_page):
        body.append(f"    ld   x7, {base + 64 * i}(x5)")
    body += ["    addi x5, x5, 4096", "    addi x6, x6, -1",
             f"    bne  x6, x0, {name}_L", _ret()]
    return Kernel(name, "\n".join(body) + "\n", premapped=[])


def k_serialize(name: str, iters: int, base: int) -> Kernel:
    """Fences and atomics: full pipeline serialization."""
    text = f""".func {name}
{name}:
    addi x6, x0, {iters}
    addi x9, x0, {base}
    addi x8, x0, 1
{name}_L:
    fence
    amoadd x7, x8, 0(x9)
    addi x6, x6, -1
    bne  x6, x0, {name}_L
{_ret()}"""
    return Kernel(name, text, premapped=[(base, base + 64)])


# ---------------------------------------------------------------------------
# Workload assembly
# ---------------------------------------------------------------------------

def build_workload(name: str, kernels: List[Kernel], rounds: int = 1,
                   description: str = "",
                   base: int = TEXT_BASE,
                   self_check: bool = True) -> Workload:
    """Link *kernels* under a round-robin ``main`` and assemble.

    *self_check* (default) lints the assembled program against the
    structural rules and raises :class:`WorkloadLintError` on failure.
    """
    if not kernels:
        raise ValueError("a workload needs at least one kernel")
    lines = [".entry main", ".func main", "main:",
             f"    addi x3, x0, {rounds}", "main_round:"]
    for kernel in kernels:
        lines.append(f"    jal  x1, {kernel.name}")
    lines += ["    addi x3, x3, -1", "    bne  x3, x0, main_round",
              "    halt"]
    source = "\n".join(lines) + "\n" + "\n".join(k.text for k in kernels)
    program = assemble(source, base=base, name=name)
    premapped: List[Tuple[int, int]] = []
    for kernel in kernels:
        program.data.update(kernel.data)
        premapped.extend(kernel.premapped)
    if self_check:
        # After the data image and premapped regions are in place, so
        # the memory-safety rules (L014..) see the real footprint.
        self_check_program(program, regions=tuple(premapped))
    return Workload(name, program, premapped, description)
