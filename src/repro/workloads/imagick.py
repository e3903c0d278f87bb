"""The Imagick case study program (Section 6).

Imagick's third-hottest function is the math-library ``ceil``; it (and
``floor``) bracket their FP rounding work with ``frflags``/``fsflags`` to
keep the functions side-effect free.  On BOOM every FP-status-CSR access
flushes the pipeline.  The paper's fix replaces the CSR instructions with
``nop``s, yielding a 1.93x speedup dominated by second-order effects
(restored latency hiding).

:func:`build_imagick` generates the original program;
``build_imagick(optimized=True)`` generates the fixed one.  Both have
*identical* instruction addresses, so profiles line up line for line.
Because the fix claims to be semantics-preserving, the builder *checks*
it: the first build of any parameter set runs both variants through the
differential harness (:func:`repro.opt.verify.diff_architectural`) and
refuses to hand out a pair whose observable architectural state
diverges.  The check is memoized per ``(pixels, morph_iters, seed)``.
"""

from __future__ import annotations

import random
from typing import List, Set, Tuple

from ..isa.assembler import assemble
from ..isa.program import Program, TEXT_BASE
from .generator import Workload, self_check_program

PIXEL_BASE = 0x20_0000
PIXEL_WORDS = 4096
OUT_BASE = 0x40_0000
MORPH_BASE = 0x60_0000
MORPH_WORDS = 8192

_MASK = 8 * PIXEL_WORDS - 1
_MORPH_MASK = 8 * MORPH_WORDS - 1


def _rounding_func(name: str, direction: str, optimized: bool) -> str:
    """``ceil`` / ``floor``: truncate, then adjust by comparing.

    The frflags/fsflags pair protects the caller from the inexact flag the
    conversion may raise -- exactly the pattern the paper found.  In the
    optimized build both become ``nop`` (same addresses).
    """
    save = "nop" if optimized else "frflags x7"
    restore = "nop" if optimized else "fsflags x7"
    if direction == "up":
        compare = "    flt  x9, f2, f1        # trunc < x: round up"
        adjust = "    fadd f2, f2, f11"
    else:
        compare = "    flt  x9, f1, f2        # x < trunc: round down"
        adjust = "    fsub f2, f2, f11"
    return f""".func {name}
{name}:
    {save}
    fcvt.w.d x8, f1
    fcvt.d.w f2, x8
    feq  x10, f2, f1
    bne  x10, x0, {name}_exact
{compare}
    beq  x9, x0, {name}_done
{adjust}
{name}_done:
{name}_exact:
    fmv  f3, f2
    {restore}
    jalr x0, x2, 0
"""


def _source(pixels: int, morph_iters: int, optimized: bool) -> str:
    return f""".entry main
.func main
main:
    addi x7, x0, 1
    fcvt.d.w f11, x7        # the constant 1.0
    jal  x1, MeanShiftImage
    jal  x1, MorphologyApply
    halt

.func MeanShiftImage
MeanShiftImage:
    addi x5, x0, 0
    addi x6, x0, {pixels}
MSI_L:
    fld  f1, {PIXEL_BASE}(x5)
    jal  x2, ceil
    fadd f4, f4, f3
    fld  f1, {PIXEL_BASE + 8}(x5)
    jal  x2, floor
    fadd f4, f4, f3
    fmul f5, f4, f12
    fsd  f5, {OUT_BASE}(x5)
    addi x5, x5, 8
    andi x5, x5, {_MASK}
    addi x6, x6, -1
    bne  x6, x0, MSI_L
    jalr x0, x1, 0

{_rounding_func("ceil", "up", optimized)}
{_rounding_func("floor", "down", optimized)}
.func MorphologyApply
MorphologyApply:
    addi x5, x0, 0
    addi x6, x0, {morph_iters}
MA_L:
    fld  f1, {MORPH_BASE}(x5)
    fld  f2, {MORPH_BASE + 8}(x5)
    fmadd f6, f1, f2, f6
    fadd f7, f7, f1
    fmul f8, f8, f2
    fadd f8, f8, f11
    addi x5, x5, 16
    andi x5, x5, {_MORPH_MASK}
    addi x6, x6, -1
    bne  x6, x0, MA_L
    jalr x0, x1, 0
"""


def _build_program(optimized: bool, pixels: int, morph_iters: int,
                   seed: int) -> Program:
    name = "imagick-opt" if optimized else "imagick-orig"
    program = assemble(_source(pixels, morph_iters, optimized),
                       base=TEXT_BASE, name=name)
    rng = random.Random(seed)
    for i in range(PIXEL_WORDS):
        program.data[PIXEL_BASE + 8 * i] = rng.uniform(0.0, 100.0)
    for i in range(0, MORPH_WORDS, 2):
        program.data[MORPH_BASE + 8 * i] = rng.uniform(0.5, 1.5)
        program.data[MORPH_BASE + 8 * (i + 1)] = rng.uniform(0.5, 1.5)
    for i in range(PIXEL_WORDS):
        # The output plane is part of the program's legal footprint:
        # declaring it keeps the memory-safety rules (L014) aware that
        # the MSI kernel's stores are in bounds.
        program.data.setdefault(OUT_BASE + 8 * i, 0.0)
    self_check_program(program)
    return program


#: Parameter sets whose orig/opt pair already passed the differential.
_VERIFIED_SIBLINGS: Set[Tuple[int, int, int]] = set()


def _verify_siblings(orig: Program, opt: Program,
                     key: Tuple[int, int, int]) -> None:
    """Differentially execute the orig/opt pair (once per *key*)."""
    if key in _VERIFIED_SIBLINGS:
        return
    from ..opt.verify import diff_architectural
    report = diff_architectural(orig, opt, trials=2,
                                max_instructions=50_000_000)
    if not report.identical:
        raise ValueError(
            "imagick variants diverge architecturally:\n"
            + report.render())
    _VERIFIED_SIBLINGS.add(key)


def build_imagick(optimized: bool = False, pixels: int = 1500,
                  morph_iters: int = 3400, seed: int = 42) -> Workload:
    """Build the Imagick case-study workload.

    *optimized* replaces the ``frflags``/``fsflags`` pair in ``ceil`` and
    ``floor`` with ``nop``, reproducing the paper's fix.  The first
    build of a parameter set differentially verifies the two variants
    against each other on the reference interpreter.
    """
    name = "imagick-opt" if optimized else "imagick-orig"
    program = _build_program(optimized, pixels, morph_iters, seed)
    key = (pixels, morph_iters, seed)
    if key not in _VERIFIED_SIBLINGS:
        sibling = _build_program(not optimized, pixels, morph_iters,
                                 seed)
        orig, opt = ((sibling, program) if optimized
                     else (program, sibling))
        _verify_siblings(orig, opt, key)
    premapped: List[Tuple[int, int]] = [
        (PIXEL_BASE, PIXEL_BASE + 8 * PIXEL_WORDS),
        (OUT_BASE, OUT_BASE + 8 * PIXEL_WORDS),
        (MORPH_BASE, MORPH_BASE + 8 * MORPH_WORDS),
    ]
    return Workload(name, program, premapped,
                    "Imagick ceil/floor CSR-flush case study")
