"""Abstract domains for the interprocedural abstract interpreter.

One abstract value (:class:`AbsVal`) is a reduced product of three
non-relational components plus two relational tags:

* an **interval** ``[lo, hi]`` over the real line (``±inf`` for
  unbounded sides) containing every value the register can hold;
* an **alignment** component: the set of possible low-3-bit residues
  (congruence mod 8) the value can have *when it is an integer*;
* a **float flag**: whether a non-integer value is possible at all
  (integer ALU results are always integers -- the reference
  interpreter wraps them through ``int()`` -- so most registers are
  provably integral, which is what licenses the ``±1`` endpoint
  refinements on branch edges);
* a **stack tag** ``sp``: the value equals the function's entry stack
  pointer plus an offset in ``[sp[0], sp[1]]``;
* an **entry tag** ``entry_of``: the value provably equals the value
  register ``entry_of`` held at function entry (used to prove
  callee-saved preservation).

The transfer function :func:`abstract_evaluate` is *derived from* the
concrete :func:`repro.isa.semantics.evaluate`: whenever every operand
is a known integer constant it delegates to the concrete semantics and
wraps the result, so the two interpreters cannot drift silently; the
interval/residue arithmetic only takes over for genuinely abstract
operands, and is tested for soundness against the concrete
interpreter (``tests/test_absint.py``).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from typing import FrozenSet, Optional, Sequence, Tuple

from ...isa.instruction import Instruction
from ...isa.opcodes import Op
from ...isa.semantics import INT64_MAX, INT64_MIN, evaluate

NEG_INF = float("-inf")
POS_INF = float("inf")

#: Every possible low-3-bit residue: the alignment component's top.
ALL_RESIDUES: FrozenSet[int] = frozenset(range(8))

#: Offsets larger than this drop the stack tag: a frame that big could
#: wrap 64-bit pointer arithmetic, voiding the relational claim.
_MAX_SP_OFFSET = 1 << 32

#: Ops whose result depends on the fflags CSR, which the abstract
#: interpreter does not model: never delegate these to the concrete
#: semantics.
_CSR_OPS = frozenset({Op.FRFLAGS, Op.FSFLAGS, Op.CSRRW})


@dataclass(frozen=True)
class AbsVal:
    """One abstract register value (see module docstring)."""

    lo: float = NEG_INF
    hi: float = POS_INF
    res: FrozenSet[int] = ALL_RESIDUES
    maybe_float: bool = True
    sp: Optional[Tuple[float, float]] = None
    entry_of: Optional[int] = None

    # -- constructors --------------------------------------------------------

    @staticmethod
    def top() -> "AbsVal":
        return TOP

    @staticmethod
    def const(value: float) -> "AbsVal":
        if isinstance(value, bool):  # pragma: no cover - defensive
            value = int(value)
        if isinstance(value, int):
            return AbsVal(value, value, frozenset({value & 7}), False)
        if isinstance(value, float) and value.is_integer() \
                and abs(value) < float(1 << 62):
            ivalue = int(value)
            return AbsVal(ivalue, ivalue, frozenset({ivalue & 7}), False)
        return AbsVal(value, value, ALL_RESIDUES, True)

    @staticmethod
    def interval(lo: float, hi: float,
                 res: FrozenSet[int] = ALL_RESIDUES,
                 maybe_float: bool = False) -> "AbsVal":
        return AbsVal(lo, hi, res, maybe_float)

    # -- predicates ----------------------------------------------------------

    @property
    def is_singleton_int(self) -> bool:
        return (not self.maybe_float and self.lo == self.hi
                and self.lo not in (NEG_INF, POS_INF))

    @property
    def singleton(self) -> Optional[int]:
        return int(self.lo) if self.is_singleton_int else None

    @property
    def finite(self) -> bool:
        return self.lo != NEG_INF and self.hi != POS_INF

    @property
    def is_top_value(self) -> bool:
        return (self.lo == NEG_INF and self.hi == POS_INF
                and self.res == ALL_RESIDUES and self.maybe_float
                and self.sp is None and self.entry_of is None)

    def contains(self, value: float, *,
                 sp_entry: Optional[int] = None,
                 entry_regs: Optional[Sequence[float]] = None) -> bool:
        """Concretization membership: is *value* a possible value?

        *sp_entry* / *entry_regs* supply the concrete entry state when
        the relational tags should be checked too; without them only
        the non-relational components are tested.
        """
        if not (self.lo <= value <= self.hi):
            return False
        is_int = isinstance(value, int) or \
            (isinstance(value, float) and value.is_integer())
        if not is_int and not self.maybe_float:
            return False
        if is_int and (int(value) & 7) not in self.res:
            return False
        if self.sp is not None and sp_entry is not None:
            off = value - sp_entry
            if not (self.sp[0] <= off <= self.sp[1]):
                return False
        if self.entry_of is not None and entry_regs is not None:
            if value != entry_regs[self.entry_of]:
                return False
        return True

    # -- lattice operations --------------------------------------------------

    def join(self, other: "AbsVal") -> "AbsVal":
        # Joining a value with an equal one rebuilds it field for field
        # (min/max keep the first of two equal bounds), so return it.
        if other is self or other == self:
            return self
        sp = None
        if self.sp is not None and other.sp is not None:
            sp = (min(self.sp[0], other.sp[0]),
                  max(self.sp[1], other.sp[1]))
        entry_of = self.entry_of if self.entry_of == other.entry_of \
            else None
        return AbsVal(min(self.lo, other.lo), max(self.hi, other.hi),
                      self.res | other.res,
                      self.maybe_float or other.maybe_float,
                      sp, entry_of)

    def widen(self, newer: "AbsVal",
              thresholds: Sequence[float]) -> "AbsVal":
        """Widen ``self`` (the older value) against *newer*.

        Growing bounds jump to the nearest enclosing threshold (the
        program's own immediates ``±1``, in ascending order) so loop
        counters stabilise on their real bounds instead of racing to
        ``±inf``.
        """
        joined = self.join(newer)
        if joined is self:
            return self  # nothing grew: no bound to push out
        lo, hi = joined.lo, joined.hi
        if lo < self.lo:
            lo = _threshold_below(thresholds, lo)
        if hi > self.hi:
            hi = _threshold_above(thresholds, hi)
        sp = joined.sp
        if sp is not None and self.sp is not None and sp != self.sp:
            slo, shi = sp
            if slo < self.sp[0]:
                slo = _threshold_below(thresholds, slo)
            if shi > self.sp[1]:
                shi = _threshold_above(thresholds, shi)
            sp = (slo, shi)
        return AbsVal(lo, hi, joined.res, joined.maybe_float, sp,
                      joined.entry_of)

    def meet_interval(self, lo: float, hi: float) -> Optional["AbsVal"]:
        """Intersect with ``[lo, hi]``; ``None`` when empty."""
        nlo, nhi = max(self.lo, lo), min(self.hi, hi)
        if nlo > nhi:
            return None
        return replace(self, lo=nlo, hi=nhi)

    def drop_tags(self) -> "AbsVal":
        if self.sp is None and self.entry_of is None:
            return self
        return AbsVal(self.lo, self.hi, self.res, self.maybe_float)


TOP = AbsVal()
_BOOL = AbsVal(0, 1, frozenset({0, 1}), False)


def _threshold_below(thresholds: Sequence[float], value: float) -> float:
    """The largest threshold ``<= value`` (``-inf`` when none is)."""
    index = bisect_right(thresholds, value)
    return thresholds[index - 1] if index else NEG_INF


def _threshold_above(thresholds: Sequence[float], value: float) -> float:
    """The smallest threshold ``>= value`` (``+inf`` when none is)."""
    index = bisect_left(thresholds, value)
    return thresholds[index] if index < len(thresholds) else POS_INF


# -- interval helpers --------------------------------------------------------

def _wrap(lo: float, hi: float, res: FrozenSet[int],
          maybe_float: bool = False) -> AbsVal:
    """Clamp a computed interval to representable 64-bit results.

    The concrete semantics wrap through ``_to_signed``; an interval
    that may overflow tells us nothing about the wrapped value, but
    residues mod 8 survive wrapping (2**64 is a multiple of 8).
    """
    if lo != lo or hi != hi:  # nan from inf arithmetic
        return AbsVal(NEG_INF, POS_INF, res, maybe_float)
    if lo < INT64_MIN or hi > INT64_MAX:
        return AbsVal(NEG_INF, POS_INF, res, maybe_float)
    return AbsVal(lo, hi, res, maybe_float)


def _eff(val: AbsVal) -> Tuple[float, float, FrozenSet[int]]:
    """Effective integer bounds/residues of one operand.

    The concrete semantics apply ``int()`` to integer-ALU operands,
    which truncates toward zero: a possibly-float operand's integer
    image stays within one unit of its interval, and its residue
    component carries no information.
    """
    if val.maybe_float:
        lo = val.lo if val.lo == NEG_INF else val.lo - 1
        hi = val.hi if val.hi == POS_INF else val.hi + 1
        return lo, hi, ALL_RESIDUES
    return val.lo, val.hi, val.res


def _res_map2(fn, ra: FrozenSet[int], rb: FrozenSet[int]) -> FrozenSet[int]:
    return frozenset(fn(a, b) & 7 for a in ra for b in rb)


def _add(a: AbsVal, b: AbsVal) -> AbsVal:
    alo, ahi, ares = _eff(a)
    blo, bhi, bres = _eff(b)
    return _wrap(alo + blo, ahi + bhi,
                 _res_map2(lambda x, y: x + y, ares, bres))


def _sub(a: AbsVal, b: AbsVal) -> AbsVal:
    alo, ahi, ares = _eff(a)
    blo, bhi, bres = _eff(b)
    return _wrap(alo - bhi, ahi - blo,
                 _res_map2(lambda x, y: x - y, ares, bres))


def _mul(a: AbsVal, b: AbsVal) -> AbsVal:
    alo, ahi, ares = _eff(a)
    blo, bhi, bres = _eff(b)
    res = _res_map2(lambda x, y: x * y, ares, bres)
    if NEG_INF in (alo, blo) or POS_INF in (ahi, bhi):
        return AbsVal(NEG_INF, POS_INF, res, False)
    corners = [alo * blo, alo * bhi, ahi * blo, ahi * bhi]
    return _wrap(min(corners), max(corners), res)


def _bitand(a: AbsVal, b: AbsVal) -> AbsVal:
    alo, ahi, ares = _eff(a)
    blo, bhi, bres = _eff(b)
    res = _res_map2(lambda x, y: x & y, ares, bres)
    # x & m for a non-negative m is in [0, m]; take the tighter side.
    bound = POS_INF
    if alo >= 0:
        bound = min(bound, ahi)
    if blo >= 0:
        bound = min(bound, bhi)
    if bound == POS_INF:
        return AbsVal(NEG_INF, POS_INF, res, False)
    return _wrap(0, bound, res)


def _bitor(a: AbsVal, b: AbsVal, xor: bool = False) -> AbsVal:
    alo, ahi, ares = _eff(a)
    blo, bhi, bres = _eff(b)
    res = _res_map2((lambda x, y: x ^ y) if xor else (lambda x, y: x | y),
                    ares, bres)
    if alo >= 0 and blo >= 0 and ahi != POS_INF and bhi != POS_INF:
        # or/xor cannot set a bit above the highest operand bit.
        bound = (1 << max(int(ahi), int(bhi), 1).bit_length()) - 1
        return _wrap(0, bound, res)
    return AbsVal(NEG_INF, POS_INF, res, False)


def _shl(a: AbsVal, b: AbsVal) -> AbsVal:
    alo, ahi, ares = _eff(a)
    k = b.singleton
    if k is None:
        return AbsVal(NEG_INF, POS_INF, ALL_RESIDUES, False)
    k &= 63
    res = frozenset((r << k) & 7 for r in ares)
    if alo == NEG_INF or ahi == POS_INF:
        return AbsVal(NEG_INF, POS_INF, res, False)
    return _wrap(alo * (1 << k), ahi * (1 << k), res)


def _shr(a: AbsVal, b: AbsVal) -> AbsVal:
    alo, ahi, _ = _eff(a)
    k = b.singleton
    if k is not None:
        k &= 63
        if alo >= 0 and ahi != POS_INF:
            return _wrap(int(alo) >> k, int(ahi) >> k, ALL_RESIDUES)
        if k >= 1:
            return _wrap(0, (1 << (64 - k)) - 1, ALL_RESIDUES)
        return AbsVal(NEG_INF, POS_INF, ALL_RESIDUES, False)
    if alo >= 0 and ahi != POS_INF:
        # Unknown shift of a non-negative value only shrinks it.
        return _wrap(0, int(ahi), ALL_RESIDUES)
    return AbsVal(NEG_INF, POS_INF, ALL_RESIDUES, False)


def _div(a: AbsVal, b: AbsVal) -> AbsVal:
    alo, ahi, _ = _eff(a)
    blo, bhi, _ = _eff(b)
    if alo >= 0 and blo >= 1 and ahi != POS_INF:
        hi = int(ahi) // max(int(blo), 1)
        lo = 0
        if bhi != POS_INF and int(bhi) >= 1:
            lo = int(alo) // int(bhi)
        return _wrap(lo, hi, ALL_RESIDUES)
    if alo >= 0 and blo >= 0 and ahi != POS_INF:
        # The divisor may be zero: DIV by zero yields -1.
        return _wrap(-1, int(ahi), ALL_RESIDUES)
    return AbsVal(NEG_INF, POS_INF, ALL_RESIDUES, False)


def _rem(a: AbsVal, b: AbsVal) -> AbsVal:
    alo, ahi, _ = _eff(a)
    blo, bhi, _ = _eff(b)
    if alo >= 0 and blo >= 1 and bhi != POS_INF:
        return _wrap(0, int(bhi) - 1, ALL_RESIDUES)
    if alo >= 0 and blo >= 0 and bhi != POS_INF and ahi != POS_INF:
        # rem by zero yields the dividend.
        return _wrap(0, max(int(bhi) - 1, int(ahi), 0), ALL_RESIDUES)
    return AbsVal(NEG_INF, POS_INF, ALL_RESIDUES, False)


def _compare_lt(a: AbsVal, b: AbsVal) -> Optional[bool]:
    """Decide ``a < b`` from raw intervals; ``None`` when unknown."""
    if a.hi < b.lo:
        return True
    if a.lo >= b.hi:
        return False
    return None


def _compare_eq(a: AbsVal, b: AbsVal) -> Optional[bool]:
    if a.hi < b.lo or b.hi < a.lo:
        return False
    if not a.maybe_float and not b.maybe_float and not (a.res & b.res):
        return False
    sa, sb = a.singleton, b.singleton
    if sa is not None and sa == sb:
        return True
    if a.entry_of is not None and a.entry_of == b.entry_of:
        return True
    return None


_INT_BINOPS = {
    Op.ADD: _add, Op.SUB: _sub, Op.MUL: _mul,
    Op.AND: _bitand, Op.OR: _bitor,
    Op.XOR: lambda a, b: _bitor(a, b, xor=True),
    Op.SLL: _shl, Op.SRL: _shr,
    Op.DIV: _div, Op.REM: _rem,
}

_IMM_BINOPS = {
    Op.ADDI: _add, Op.ANDI: _bitand, Op.ORI: _bitor,
    Op.XORI: lambda a, b: _bitor(a, b, xor=True),
    Op.SLLI: _shl, Op.SRLI: _shr,
}

_FP_VALUE_OPS = frozenset({
    Op.FADD, Op.FSUB, Op.FMUL, Op.FMIN, Op.FMAX, Op.FMADD,
    Op.FDIV, Op.FSQRT, Op.FCVT_D_W,
})

_CMP01_OPS = frozenset({Op.FEQ, Op.FLT, Op.FLE})


@dataclass(frozen=True)
class AbsExec:
    """Abstract counterpart of :class:`repro.isa.semantics.ExecResult`."""

    #: Destination-register value (when the op writes one).
    value: Optional[AbsVal] = None
    #: Effective-address abstraction for memory ops.
    eff: Optional[AbsVal] = None
    #: Decided branch outcome; ``None`` when both edges are feasible.
    verdict: Optional[bool] = None


def abstract_evaluate(inst: Instruction,
                      operands: Tuple[AbsVal, ...]) -> AbsExec:
    """Abstractly execute *inst*: the sound counterpart of
    :func:`repro.isa.semantics.evaluate` over :class:`AbsVal`.

    When every operand is a known integer constant the concrete
    semantics are consulted directly (the anti-drift coupling); the
    interval/residue arithmetic handles everything else.
    """
    op = inst.op

    # Constant folding through the concrete semantics.
    if op not in _CSR_OPS and not inst.is_mem \
            and all(v.is_singleton_int for v in operands):
        result = evaluate(inst, tuple(v.singleton for v in operands))
        value = None
        if result.value is not None:
            value = AbsVal.const(result.value)
        if inst.is_branch:
            return AbsExec(verdict=result.taken)
        if inst.is_control:
            return AbsExec(value=value)
        return AbsExec(value=value)

    if op in _INT_BINOPS:
        return AbsExec(value=_INT_BINOPS[op](operands[0], operands[1]))
    if op in _IMM_BINOPS:
        return AbsExec(value=_IMM_BINOPS[op](
            operands[0], AbsVal.const(inst.imm)))
    if op in (Op.SLT, Op.SLTI):
        other = operands[1] if op is Op.SLT else AbsVal.const(inst.imm)
        decided = _compare_lt(operands[0], other)
        if decided is None:
            return AbsExec(value=_BOOL)
        return AbsExec(value=AbsVal.const(int(decided)))
    if op is Op.LUI:
        return AbsExec(value=AbsVal.const(inst.imm << 12))

    if op in _CMP01_OPS:
        return AbsExec(value=_BOOL)
    if op is Op.FCVT_W_D:
        src = operands[0]
        lo = src.lo if src.lo == NEG_INF else src.lo - 1
        hi = src.hi if src.hi == POS_INF else src.hi + 1
        return AbsExec(value=_wrap(lo, hi, ALL_RESIDUES))
    if op is Op.FMV:
        return AbsExec(value=operands[0])
    if op in _FP_VALUE_OPS:
        return AbsExec(value=TOP)

    if inst.is_mem:
        base = operands[0]
        eff = _add(base.drop_tags(), AbsVal.const(inst.imm))
        if base.sp is not None:
            eff = replace(eff, sp=(base.sp[0] + inst.imm,
                                   base.sp[1] + inst.imm))
        return AbsExec(eff=eff, value=TOP if inst.rd else None)

    if inst.is_branch:
        a, b = operands
        if op is Op.BEQ:
            return AbsExec(verdict=_compare_eq(a, b))
        if op is Op.BNE:
            eq = _compare_eq(a, b)
            return AbsExec(verdict=None if eq is None else not eq)
        if op is Op.BLT:
            return AbsExec(verdict=_compare_lt(a, b))
        lt = _compare_lt(a, b)  # BGE
        return AbsExec(verdict=None if lt is None else not lt)
    if op is Op.JAL:
        return AbsExec(value=AbsVal.const(inst.next_addr))
    if op is Op.JALR:
        return AbsExec(value=AbsVal.const(inst.next_addr))

    # CSR reads, nop/halt/fence/sret/ecall: no information.
    if inst.rd is not None and inst.rd != 0:
        return AbsExec(value=TOP)
    return AbsExec()


# -- branch-edge refinement --------------------------------------------------

def _exclude_endpoint(val: AbsVal, point: int) -> Optional[AbsVal]:
    """Refine ``val`` knowing ``val != point`` (integers only)."""
    if val.maybe_float:
        return val
    lo, hi = val.lo, val.hi
    if lo == hi == point:
        return None
    if lo == point:
        lo += 1
    if hi == point:
        hi -= 1
    if lo > hi:
        return None
    return replace(val, lo=lo, hi=hi)


def refine_branch(inst: Instruction, a: AbsVal, b: AbsVal,
                  taken: bool) -> Optional[Tuple[AbsVal, AbsVal]]:
    """Refine branch operands along the *taken*/fall-through edge.

    Returns refined ``(a, b)`` or ``None`` when the edge is infeasible
    under the current abstraction.
    """
    op = inst.op
    relation: str
    if op is Op.BEQ:
        relation = "eq" if taken else "ne"
    elif op is Op.BNE:
        relation = "ne" if taken else "eq"
    elif op is Op.BLT:
        relation = "lt" if taken else "ge"
    elif op is Op.BGE:
        relation = "ge" if taken else "lt"
    else:
        return a, b

    if relation == "eq":
        na = a.meet_interval(b.lo, b.hi)
        nb = b.meet_interval(a.lo, a.hi)
        if na is None or nb is None:
            return None
        res = a.res & b.res
        mf = a.maybe_float and b.maybe_float
        if not res and not mf:
            return None  # no integer residue fits and floats ruled out
        return (replace(na, res=res, maybe_float=mf),
                replace(nb, res=res, maybe_float=mf))
    if relation == "ne":
        na, nb = a, b
        point = b.singleton
        if point is not None:
            refined = _exclude_endpoint(a, point)
            if refined is None:
                return None
            na = refined
        point = a.singleton
        if point is not None:
            refined = _exclude_endpoint(b, point)
            if refined is None:
                return None
            nb = refined
        return na, nb

    ints = not a.maybe_float and not b.maybe_float
    if relation == "lt":  # a < b
        a_cap = b.hi - 1 if ints and b.hi != POS_INF else b.hi
        b_floor = a.lo + 1 if ints and a.lo != NEG_INF else a.lo
        na = a.meet_interval(NEG_INF, a_cap)
        nb = b.meet_interval(b_floor, POS_INF)
        if na is None or nb is None:
            return None
        return na, nb
    # ge: a >= b
    na = a.meet_interval(b.lo, POS_INF)
    nb = b.meet_interval(NEG_INF, a.hi)
    if na is None or nb is None:
        return None
    return na, nb
