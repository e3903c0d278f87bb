"""The interprocedural abstract-interpretation engine.

A widening/narrowing fixpoint interpreter over the existing
control-flow graph plus a call graph with per-function summaries:

* **per function**: a worklist fixpoint over basic blocks in the
  product domain of :mod:`repro.lint.absint.domain`, with threshold
  widening (the thresholds are the program's own immediates ``±1``, so
  counted loops stabilise on their real bounds) followed by a bounded
  narrowing: decreasing Jacobi passes that are only accepted when they
  re-reach a fixpoint, otherwise the widened post-fixpoint is kept --
  soundness never depends on the narrowing converging;
* **across functions**: callee entry environments are the join of the
  translated call-site environments, and each function exports a
  :class:`FunctionSummary` (preserved registers, return-value
  environment, stack behaviour).  The caller/callee system iterates to
  a global fixpoint with bounded rounds; a round re-solves a function
  only when its entry environment or a direct callee's summary
  changed since its last solve.

The engine is *honest about its own applicability*: control flow it
cannot model soundly (indirect calls, cross-function jumps, returns
whose link register is not provably the entry value) degrades the
whole result to ``TOP`` instead of producing claims that a concrete
execution could escape.  The hypothesis property test drives random
programs through the reference interpreter and asserts every concrete
register value and effective address stays inside the abstract result.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import (Dict, FrozenSet, Iterable, List, Optional, Set,
                    Tuple)

from ...isa.instruction import Instruction, Register
from ...isa.opcodes import Kind, Op
from ...isa.program import Program
from ..cfg import BasicBlock, ControlFlowGraph
from ..dataflow import _function_blocks, is_call_like
from .domain import AbsVal, TOP, abstract_evaluate, refine_branch
from .abi import STACK_POINTER

#: Block-entry joins beyond this visit count start widening.
_WIDEN_AFTER = 3
#: Decreasing (narrowing) Jacobi passes attempted per function.
_NARROW_PASSES = 3
#: Global caller/callee rounds before forced entry-env widening.
_WIDEN_ROUND = 3
#: Hard cap on global rounds (then the result degrades to TOP).
_MAX_ROUNDS = 20

_ZERO = AbsVal.const(0)

#: Access width in bytes per memory opcode.
_ACCESS_SIZE = {Op.LW: 4, Op.SW: 4}


class AbsState:
    """One abstract machine state: registers plus the local frame.

    ``regs`` is sparse -- a missing register is ``TOP``.  ``frame``
    maps *entry-SP-relative byte offsets* of this function's own saved
    slots to the stored abstract value; anything that could clobber
    the frame (a non-SP store, an SP store at an unknown offset, a
    call into a function that may touch the stack) clears it.
    """

    __slots__ = ("regs", "frame")

    def __init__(self, regs: Optional[Dict[int, AbsVal]] = None,
                 frame: Optional[Dict[float, AbsVal]] = None):
        self.regs: Dict[int, AbsVal] = regs or {}
        self.frame: Dict[float, AbsVal] = frame or {}

    def reg(self, index: int) -> AbsVal:
        if index == 0:
            return _ZERO
        return self.regs.get(index, TOP)

    def write(self, index: int, value: AbsVal) -> "AbsState":
        regs = dict(self.regs)
        if value.is_top_value:
            regs.pop(index, None)
        else:
            regs[index] = value
        return AbsState(regs, self.frame)

    def copy(self) -> "AbsState":
        return AbsState(dict(self.regs), dict(self.frame))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, AbsState)
                and self.regs == other.regs
                and self.frame == other.frame)

    def __hash__(self) -> int:  # pragma: no cover - not used as keys
        return hash((frozenset(self.regs.items()),
                     frozenset(self.frame.items())))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        regs = ", ".join(f"{Register.name(r)}={v}"
                         for r, v in sorted(self.regs.items()))
        return f"<AbsState {regs}>"


def _rebuilds_itself(a: AbsState, b: AbsState) -> bool:
    """Would joining or widening *a* with *b* rebuild *a* exactly?

    Yes when the two are equal and *a* holds no TOP value: equal
    values join and widen to the first operand's own fields, and the
    combined state keeps every non-TOP value (TOP ones are dropped).
    """
    if a != b:
        return False
    return not any(value.is_top_value
                   for value in chain(a.regs.values(), a.frame.values()))


def join_states(a: Optional[AbsState],
                b: Optional[AbsState]) -> Optional[AbsState]:
    if a is None:
        return b
    if b is None or _rebuilds_itself(a, b):
        return a
    regs: Dict[int, AbsVal] = {}
    for key in a.regs.keys() | b.regs.keys():
        value = a.regs.get(key, TOP).join(b.regs.get(key, TOP))
        if not value.is_top_value:
            regs[key] = value
    frame: Dict[float, AbsVal] = {}
    for off in a.frame.keys() & b.frame.keys():
        value = a.frame[off].join(b.frame[off])
        if not value.is_top_value:
            frame[off] = value
    return AbsState(regs, frame)


def widen_states(old: AbsState, new: AbsState,
                 thresholds: Tuple[float, ...]) -> AbsState:
    if _rebuilds_itself(old, new):
        return old
    regs: Dict[int, AbsVal] = {}
    for key in old.regs.keys() | new.regs.keys():
        value = old.regs.get(key, TOP).widen(new.regs.get(key, TOP),
                                             thresholds)
        if not value.is_top_value:
            regs[key] = value
    frame: Dict[float, AbsVal] = {}
    for off in old.frame.keys() & new.frame.keys():
        value = old.frame[off].widen(new.frame[off], thresholds)
        if not value.is_top_value:
            frame[off] = value
    return AbsState(regs, frame)


@dataclass(frozen=True)
class FunctionSummary:
    """What a caller may assume after a call returns."""

    #: Registers whose value at every return provably equals the value
    #: at entry (so the caller keeps its own facts, tags included).
    preserved: FrozenSet[int] = frozenset(range(1, Register.TOTAL))
    #: Join of the return-site values for non-preserved registers
    #: (tags dropped; missing = TOP).
    returns: Dict[int, AbsVal] = field(default_factory=dict)
    #: Can the function return to its caller at all?
    may_return: bool = False
    #: May the function (transitively) write memory the caller's frame
    #: slots could alias?
    may_touch_stack: bool = False

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FunctionSummary)
                and self.preserved == other.preserved
                and self.returns == other.returns
                and self.may_return == other.may_return
                and self.may_touch_stack == other.may_touch_stack)


#: The summary of a callee the engine knows nothing about.
WORST_SUMMARY = FunctionSummary(preserved=frozenset(), returns={},
                                may_return=True, may_touch_stack=True)

#: What one per-function solve reads: the entry environment and each
#: direct callee's summary (``None`` while it has none yet).
_SolveInputs = Tuple[AbsState, Tuple[Optional[FunctionSummary], ...]]
#: What it produces: block-entry states, summary, call-site
#: contributions and return sites.
_SolveOutcome = Tuple[Dict[int, Optional[AbsState]], FunctionSummary,
                      List[Tuple[str, AbsState]],
                      List[Tuple[Instruction, AbsState]]]


@dataclass
class MemAccess:
    """The joined abstraction of every context reaching one memory op."""

    addr: int
    function: str
    op: Op
    size: int
    is_store: bool
    is_load: bool
    #: Abstract effective address (join over all contexts).
    value: AbsVal = TOP

    @property
    def sp_relative(self) -> bool:
        return self.value.sp is not None


class AbsintResult:
    """Everything one whole-program analysis produced."""

    def __init__(self, interp: "AbstractInterpreter"):
        self._interp = interp
        self.program = interp.program
        self.cfg = interp.cfg
        #: Block index -> abstract state at block entry (``None`` =
        #: proven unreachable under the abstraction).  Only blocks of
        #: analyzed (transitively called) functions appear.
        self.envs: Dict[int, Optional[AbsState]] = {}
        #: Block index -> decided branch verdict of its terminator.
        self.verdicts: Dict[int, bool] = {}
        #: Instruction addr -> joined memory-access abstraction.
        self.accesses: Dict[int, MemAccess] = {}
        #: (function, header block index) -> proven max header visits.
        self.trip_bounds: Dict[Tuple[str, int], int] = {}
        self.summaries: Dict[str, FunctionSummary] = {}
        #: Return-site states per function: (terminator, state).
        self.return_states: Dict[str, List[Tuple[Instruction, AbsState]]] \
            = {}
        #: True when unsupported control flow degraded the whole
        #: result to TOP (every claim is trivial but still sound).
        self.degraded = False

    # -- queries -------------------------------------------------------------

    def analyzed(self, function: str) -> bool:
        return function in self.summaries

    def infeasible_blocks(self, function: str) -> Set[int]:
        """Structurally reachable blocks proven never to execute."""
        out = set()
        for index in self.cfg.functions.get(function, ()):
            if index in self.envs and self.envs[index] is None \
                    and index in self.cfg.reachable:
                out.add(index)
        return out

    def state_before(self, addr: int) -> Optional[AbsState]:
        """The abstract state just before the instruction at *addr*
        (``None`` when the instruction is proven unreachable or its
        function was never analyzed)."""
        block = self.cfg.block_of(addr)
        if block is None or block.index not in self.envs:
            return None
        state = self.envs[block.index]
        if state is None:
            return None
        for inst in block.instructions:
            if inst.addr == addr:
                return state
            next_state = self._interp.step(inst, state)
            if next_state is None:
                return None
            state = next_state
        return None

    def value_before(self, addr: int, reg: int) -> AbsVal:
        state = self.state_before(addr)
        if state is None:
            return TOP
        return state.reg(reg)


class AbstractInterpreter:
    """Runs the interprocedural analysis over one program."""

    def __init__(self, program: Program, cfg: ControlFlowGraph,
                 regions: Optional[Iterable[Tuple[int, int]]] = None):
        self.program = program
        self.cfg = cfg
        self.regions: Tuple[Tuple[int, int], ...] = \
            tuple(regions) if regions else ()
        self.thresholds = self._collect_thresholds(program)
        self._summaries: Dict[str, FunctionSummary] = {}
        self._entry_envs: Dict[str, AbsState] = {}
        #: Function -> (inputs, outcome) of its latest solve.
        self._solves: Dict[str, Tuple[_SolveInputs, _SolveOutcome]] = {}
        self._result: Optional[AbsintResult] = None

    # -- public entry point --------------------------------------------------

    def run(self) -> AbsintResult:
        if self._result is not None:
            return self._result
        result = AbsintResult(self)
        entry_fn = self._entry_function()
        if entry_fn is None or self._unsupported_flow():
            self._degrade(result)
        else:
            self._entry_envs = {entry_fn: self._zeros_env()}
            converged = self._solve(entry_fn)
            self._record(result)
            if not converged or not self._returns_verified(result):
                self._degrade(result)
        self._result = result
        return result

    # -- setup ---------------------------------------------------------------

    @staticmethod
    def _collect_thresholds(program: Program) -> Tuple[float, ...]:
        points: Set[float] = {-1.0, 0.0, 1.0}
        for inst in program.instructions:
            if inst.imm is None:
                continue
            points.update((float(inst.imm - 1), float(inst.imm),
                           float(inst.imm + 1)))
        return tuple(sorted(points))

    def _entry_function(self) -> Optional[str]:
        block = self.cfg.block_of(self.program.entry)
        if block is None:
            return None
        indices = self.cfg.functions.get(block.function)
        if not indices or \
                self.cfg.blocks[indices[0]].start != self.program.entry:
            return None  # entry lands mid-function: cannot seed soundly
        return block.function

    def _zeros_env(self) -> AbsState:
        return AbsState({r: _ZERO for r in range(1, Register.TOTAL)})

    def _seed(self, function: str, entry_env: AbsState) -> AbsState:
        """Block-entry state for a function root: the joined call-site
        environment plus the tags that hold at entry by definition."""
        regs: Dict[int, AbsVal] = {}
        for reg in range(1, Register.TOTAL):
            value = entry_env.reg(reg)
            # Every register carries its entry tag, so none is TOP.
            regs[reg] = AbsVal(value.lo, value.hi, value.res,
                               value.maybe_float,
                               (0.0, 0.0) if reg == STACK_POINTER else None,
                               reg)
        return AbsState(regs, {})

    # -- applicability guard -------------------------------------------------

    def _unsupported_flow(self) -> bool:
        """Syntactic pre-scan for control flow the interprocedural
        model cannot follow soundly."""
        ret_links: Dict[str, Set[int]] = {}
        call_links: Dict[str, Set[int]] = {}
        for block in self.cfg.blocks:
            if block.index not in self.cfg.reachable:
                continue
            if block.falls_off:
                return True  # execution leaks into the next function
            for inst in block.instructions:
                if inst.kind is Kind.SRET:
                    return True  # trap return: target unmodelled
                if inst.op is Op.JALR:
                    if inst.rd not in (None, 0):
                        return True  # indirect call
                    if inst.imm != 0:
                        return True  # return offset from the link value
                    ret_links.setdefault(block.function,
                                         set()).add(inst.sources[0])
            term = block.terminator
            if term.kind is Kind.CALL and not term.is_jump:
                callee = self.program.function_of(term.imm)
                if callee is None or term.imm != callee.lo:
                    return True  # call into a function's middle
                call_links.setdefault(callee.name,
                                      set()).add(term.rd or 0)
            elif term.is_branch or term.is_jump:
                for target in term.static_targets():
                    if target == term.next_addr and term.is_branch:
                        continue
                    owner = self.cfg.block_of(target)
                    if owner is None or owner.function != block.function:
                        return True  # cross-function jump/branch
        for function, links in ret_links.items():
            combined = links | call_links.get(function, set())
            if len(combined) > 1:
                return True  # returns cannot target every call site
        return False

    def _returns_verified(self, result: AbsintResult) -> bool:
        """Every analyzed return must provably jump back to its call
        site: the link register still holds its entry value."""
        for states in result.return_states.values():
            for term, state in states:
                if term.kind is not Kind.RETURN or not term.sources:
                    continue
                link = term.sources[0]
                if state.reg(link).entry_of != link:
                    return False
        return True

    # -- global fixpoint -----------------------------------------------------

    def _call_order(self, entry_fn: str) -> List[str]:
        order = [fn for fn in (entry_fn,) if fn in self.cfg.functions]
        seen = set(order)
        queue = deque(order)
        while queue:
            fn = queue.popleft()
            for callee in self._direct_callees(fn):
                if callee not in seen and callee in self.cfg.functions:
                    seen.add(callee)
                    order.append(callee)
                    queue.append(callee)
        return order

    def _direct_callees(self, function: str) -> List[str]:
        out = []
        for index in self.cfg.functions.get(function, ()):
            term = self.cfg.blocks[index].terminator
            if term.kind is Kind.CALL and not term.is_jump:
                callee = self.program.function_of(term.imm)
                if callee is not None:
                    out.append(callee.name)
        return out

    def _solve(self, entry_fn: str) -> bool:
        for round_index in range(_MAX_ROUNDS):
            changed = False
            contributions: Dict[str, AbsState] = {}
            for fn in self._call_order(entry_fn):
                if fn not in self._entry_envs:
                    continue
                envs, summary, calls, _ = self._analyze_function(fn)
                if summary != self._summaries.get(fn):
                    self._summaries[fn] = summary
                    changed = True
                for callee, env in calls:
                    contributions[callee] = join_states(
                        contributions.get(callee), env) or env
            for callee, env in contributions.items():
                old = self._entry_envs.get(callee)
                joined = join_states(old, env)
                assert joined is not None
                if old is not None and round_index >= _WIDEN_ROUND:
                    joined = widen_states(old, joined, self.thresholds)
                if joined != old:
                    self._entry_envs[callee] = joined
                    changed = True
            if not changed:
                return True
        return False

    # -- per-function fixpoint -----------------------------------------------

    def _analyze_function(self, function: str) -> _SolveOutcome:
        """The per-function fixpoint under the current global state.

        A solve reads only two things the global rounds change: the
        function's entry environment and the summaries of its direct
        callees (a missing one is the optimistic bottom).  It is
        deterministic, so while both equal those of the function's
        last solve that outcome is returned instead of recomputed --
        which also makes :meth:`_record` after convergence solve-free.
        """
        inputs = (self._entry_envs[function],
                  tuple(self._summaries.get(callee)
                        for callee in self._direct_callees(function)))
        last = self._solves.get(function)
        if last is not None and last[0] == inputs:
            return last[1]
        outcome = self._function_fixpoint(function)
        self._solves[function] = (inputs, outcome)
        return outcome

    def _function_fixpoint(self, function: str) -> _SolveOutcome:
        root, indices = _function_blocks(self.cfg, function)
        assert root is not None
        seed = self._seed(function, self._entry_envs[function])

        envs: Dict[int, Optional[AbsState]] = {i: None for i in indices}
        envs[root] = seed
        visits: Dict[int, int] = {}
        work = deque([root])
        while work:
            index = work.popleft()
            state = envs[index]
            if state is None:
                continue
            edges, _, _ = self._flow_block(self.cfg.blocks[index], state)
            for succ, succ_state in edges:
                if succ not in indices:
                    continue
                old = envs[succ]
                joined = join_states(old, succ_state)
                visits[succ] = visits.get(succ, 0) + 1
                if old is not None and visits[succ] > _WIDEN_AFTER:
                    joined = widen_states(old, joined, self.thresholds)
                if joined != old:
                    envs[succ] = joined
                    work.append(succ)

        # Narrowing: decreasing Jacobi passes, accepted only if they
        # re-reach a fixpoint (else the widened post-fixpoint stands).
        snapshot = dict(envs)
        stable = False
        for _ in range(_NARROW_PASSES):
            refreshed = self._jacobi_pass(indices, root, seed, envs)
            if refreshed == envs:
                stable = True
                break
            envs = refreshed
        if not stable:
            final = self._jacobi_pass(indices, root, seed, envs)
            if final != envs:
                envs = snapshot

        # Collection pass over the chosen fixpoint.
        calls: List[Tuple[str, AbsState]] = []
        rets: List[Tuple[Instruction, AbsState]] = []
        for index in sorted(indices):
            state = envs[index]
            if state is None:
                continue
            _, block_calls, block_ret = self._flow_block(
                self.cfg.blocks[index], state)
            calls.extend(block_calls)
            if block_ret is not None:
                rets.append(block_ret)
        summary = self._summarize(function, rets)
        return envs, summary, calls, rets

    def _jacobi_pass(self, indices: Set[int], root: int, seed: AbsState,
                     envs: Dict[int, Optional[AbsState]]
                     ) -> Dict[int, Optional[AbsState]]:
        refreshed: Dict[int, Optional[AbsState]] = \
            {i: None for i in indices}
        refreshed[root] = seed
        for index in sorted(indices):
            state = envs[index]
            if state is None:
                continue
            edges, _, _ = self._flow_block(self.cfg.blocks[index], state)
            for succ, succ_state in edges:
                if succ in indices:
                    refreshed[succ] = join_states(refreshed[succ],
                                                  succ_state)
        return refreshed

    def _summarize(self, function: str,
                   rets: List[Tuple[Instruction, AbsState]]
                   ) -> FunctionSummary:
        touches = self._touches_stack(function)
        if not rets:
            return FunctionSummary(preserved=frozenset(), returns={},
                                   may_return=False,
                                   may_touch_stack=touches)
        preserved = set(range(1, Register.TOTAL))
        returns: Dict[int, AbsVal] = {}
        for _, state in rets:
            for reg in list(preserved):
                if state.reg(reg).entry_of != reg:
                    preserved.discard(reg)
        for reg in range(1, Register.TOTAL):
            if reg in preserved:
                continue
            joined = TOP
            first = True
            for _, state in rets:
                value = state.reg(reg).drop_tags()
                joined = value if first else joined.join(value)
                first = False
            if not joined.is_top_value:
                returns[reg] = joined
        return FunctionSummary(preserved=frozenset(preserved),
                               returns=returns, may_return=True,
                               may_touch_stack=touches)

    def _touches_stack(self, function: str) -> bool:
        """Does *function* (transitively) store anywhere a caller frame
        slot could alias?  Syntactic over the call graph: any store at
        all is conservatively assumed to alias."""
        seen: Set[str] = set()
        work = [function]
        while work:
            fn = work.pop()
            if fn in seen:
                continue
            seen.add(fn)
            for index in self.cfg.functions.get(fn, ()):
                for inst in self.cfg.blocks[index].instructions:
                    if inst.is_store:
                        return True
                    if inst.op is Op.JALR and inst.rd not in (None, 0):
                        return True
            work.extend(self._direct_callees(fn))
        return False

    # -- transfer ------------------------------------------------------------

    def step(self, inst: Instruction, state: AbsState,
             record: Optional[AbsintResult] = None,
             function: str = "") -> Optional[AbsState]:
        """Non-control transfer of one instruction (loads/stores/ALU)."""
        operands = tuple(state.reg(src) for src in inst.sources)
        outcome = abstract_evaluate(inst, operands)

        if inst.is_mem:
            assert outcome.eff is not None
            if record is not None:
                self._record_access(record, inst, function, outcome.eff)
            frame = state.frame
            loaded: Optional[AbsVal] = None
            slot = self._frame_slot(outcome.eff)
            if inst.is_store:
                if slot is not None:
                    frame = dict(frame)
                    frame[slot] = state.reg(inst.sources[1]) \
                        if len(inst.sources) > 1 else TOP
                else:
                    frame = {}  # unknown store may clobber any slot
            if inst.is_load:
                if inst.is_store:  # atomic: old memory value
                    loaded = TOP
                elif slot is not None and slot in frame:
                    loaded = frame[slot]
                else:
                    loaded = TOP
            new_state = AbsState(dict(state.regs), frame)
            if inst.rd not in (None, 0) and loaded is not None:
                return new_state.write(inst.rd, loaded)
            if frame is not state.frame:
                return new_state
            return state if not inst.is_store else new_state

        if inst.rd in (None, 0) or outcome.value is None:
            if inst.rd not in (None, 0):
                return state.write(inst.rd, TOP)
            return state
        value = self._tag_value(inst, operands, outcome.value)
        return state.write(inst.rd, value)

    @staticmethod
    def _frame_slot(eff: AbsVal) -> Optional[float]:
        if eff.sp is not None and eff.sp[0] == eff.sp[1]:
            return eff.sp[0]
        return None

    @staticmethod
    def _tag_value(inst: Instruction, operands: Tuple[AbsVal, ...],
                   value: AbsVal) -> AbsVal:
        """Re-attach the relational tags the pure domain transfer
        drops: SP-offset arithmetic and identity copies."""
        op = inst.op
        if op is Op.ADDI and operands:
            src = operands[0]
            if src.sp is not None and not src.maybe_float \
                    and abs(inst.imm) < (1 << 32):
                value = replace(value, sp=(src.sp[0] + inst.imm,
                                           src.sp[1] + inst.imm))
            if inst.imm == 0:
                value = replace(value, entry_of=src.entry_of,
                                sp=src.sp if not src.maybe_float
                                else value.sp)
        elif op in (Op.ADD, Op.SUB) and len(operands) == 2:
            a, b = operands
            shift = None
            if a.sp is not None and b.sp is None and b.finite \
                    and not b.maybe_float:
                shift = (b.lo, b.hi) if op is Op.ADD else (-b.hi, -b.lo)
                base = a
            elif op is Op.ADD and b.sp is not None and a.sp is None \
                    and a.finite and not a.maybe_float:
                shift = (a.lo, a.hi)
                base = b
            else:
                base = a
            if shift is not None and base.sp is not None \
                    and max(abs(base.sp[0] + shift[0]),
                            abs(base.sp[1] + shift[1])) < (1 << 32):
                value = replace(value, sp=(base.sp[0] + shift[0],
                                           base.sp[1] + shift[1]))
        elif op is Op.FMV and operands:
            return operands[0]
        return value

    def _record_access(self, result: AbsintResult, inst: Instruction,
                       function: str, eff: AbsVal) -> None:
        size = _ACCESS_SIZE.get(inst.op, 8)
        access = result.accesses.get(inst.addr)
        if access is None:
            result.accesses[inst.addr] = MemAccess(
                inst.addr, function, inst.op, size,
                inst.is_store, inst.is_load, eff)
        else:
            access.value = access.value.join(eff)

    # -- block flow ----------------------------------------------------------

    def _flow_block(self, block: BasicBlock, entry: AbsState,
                    record: Optional[AbsintResult] = None):
        """Transfer one block.  Returns ``(edges, calls, ret)`` where
        *edges* are ``(successor index, state)`` pairs, *calls* are
        ``(callee function, translated contribution)`` pairs and *ret*
        is the ``(terminator, state)`` return site, if any."""
        state: Optional[AbsState] = entry
        for inst in block.instructions[:-1]:
            assert state is not None
            state = self.step(inst, state, record, block.function)
            if state is None:  # pragma: no cover - defensive
                return [], [], None
        term = block.terminator
        assert state is not None
        edges: List[Tuple[int, AbsState]] = []
        calls: List[Tuple[str, AbsState]] = []

        if term.kind is Kind.HALT:
            return edges, calls, None

        if is_call_like(term):
            after = state
            if term.rd not in (None, 0):
                after = after.write(term.rd, AbsVal.const(term.next_addr))
            callee_name: Optional[str] = None
            if term.kind is Kind.CALL and not term.is_jump:
                callee = self.program.function_of(term.imm)
                if callee is not None and term.imm == callee.lo:
                    callee_name = callee.name
            summary = self._summaries.get(callee_name, WORST_SUMMARY) \
                if callee_name is not None else WORST_SUMMARY
            if callee_name is None and term.kind is Kind.CALL:
                summary = WORST_SUMMARY
            if callee_name is not None:
                if callee_name not in self._summaries:
                    # Optimistic bottom summary: no return yet; the
                    # global rounds grow it monotonically.
                    summary = FunctionSummary()
                calls.append((callee_name, self._translate(after)))
            returned = self._apply_summary(after, summary)
            if returned is not None:
                succ = self.cfg.block_index_of(term.next_addr)
                if succ is not None and succ in block.successors:
                    edges.append((succ, returned))
            return edges, calls, None

        if term.kind is Kind.RETURN:
            return edges, calls, (term, state)

        if term.is_branch:
            operands = tuple(state.reg(src) for src in term.sources)
            outcome = abstract_evaluate(term, operands)
            if record is not None and outcome.verdict is not None \
                    and block.index in self.cfg.reachable:
                record.verdicts[block.index] = outcome.verdict
            for taken in (True, False):
                if outcome.verdict is not None \
                        and outcome.verdict is not taken:
                    continue
                target = term.imm if taken else term.next_addr
                succ = self.cfg.block_index_of(target)
                if succ is None or succ not in block.successors:
                    continue
                refined = refine_branch(term, operands[0], operands[1],
                                        taken)
                if refined is None:
                    continue
                edge_state = state
                for src, value in zip(term.sources, refined):
                    if src != 0:
                        merged = value
                        edge_state = edge_state.write(src, merged)
                edges.append((succ, edge_state))
            return edges, calls, None

        if term.is_jump:
            succ = self.cfg.block_index_of(term.imm)
            if succ is not None and succ in block.successors:
                edges.append((succ, state))
            return edges, calls, None

        # Plain instruction ending a block (next block is a label).
        state = self.step(term, state, record, block.function)
        if state is not None:
            succ = self.cfg.block_index_of(term.next_addr)
            if succ is not None and succ in block.successors:
                edges.append((succ, state))
        return edges, calls, None

    @staticmethod
    def _translate(state: AbsState) -> AbsState:
        """A call-site state as seen from the callee: relational tags
        are caller-relative and do not survive the boundary."""
        regs: Dict[int, AbsVal] = {}
        for reg, value in state.regs.items():
            dropped = value.drop_tags()
            if not dropped.is_top_value:
                regs[reg] = dropped
        return AbsState(regs, {})

    @staticmethod
    def _apply_summary(state: AbsState,
                       summary: FunctionSummary) -> Optional[AbsState]:
        if not summary.may_return:
            return None
        regs: Dict[int, AbsVal] = {}
        for reg in range(1, Register.TOTAL):
            if reg in summary.preserved:
                value = state.reg(reg)
            else:
                value = summary.returns.get(reg, TOP)
            if not value.is_top_value:
                regs[reg] = value
        frame = {} if summary.may_touch_stack else dict(state.frame)
        return AbsState(regs, frame)

    # -- result assembly -----------------------------------------------------

    def _record(self, result: AbsintResult) -> None:
        result.summaries = dict(self._summaries)
        for fn in self._entry_envs:
            if fn not in self.cfg.functions:
                continue
            envs, summary, _, rets = self._analyze_function(fn)
            result.summaries[fn] = summary
            result.return_states[fn] = rets
            result.envs.update(envs)
            for index, state in envs.items():
                if state is None:
                    continue
                self._flow_block(self.cfg.blocks[index], state,
                                 record=result)
            self._loop_bounds(result, fn, envs)

    def _loop_bounds(self, result: AbsintResult, function: str,
                     envs: Dict[int, Optional[AbsState]]) -> None:
        merged: Dict[int, Set[int]] = {}
        back_sources: Dict[int, Set[int]] = {}
        for loop in self.cfg.loops:
            if loop.function != function:
                continue
            merged.setdefault(loop.header, set()).update(loop.body)
            back_sources.setdefault(loop.header, set()).add(
                loop.back_edge[0])
        if not merged:
            return
        dom = self.cfg.dominators(function)
        for header, body in merged.items():
            state = envs.get(header)
            if state is None:
                continue
            bound = self._counter_bound(function, header, body,
                                        back_sources[header], dom, state)
            if bound is not None:
                result.trip_bounds[(function, header)] = bound

    def _counter_bound(self, function: str, header: int, body: Set[int],
                       back_sources: Set[int], dom, state: AbsState
                       ) -> Optional[int]:
        """Bound header visits via a monotone counter: a register with
        exactly one in-loop writer ``addi r, r, c`` (``c != 0``) that
        dominates every back edge, whose value at the header is a
        finite integer interval: each full iteration moves it at least
        ``|c|``, so visits cannot exceed ``width / |c| + 1``."""
        writers: Dict[int, List[Tuple[int, Instruction]]] = {}
        for index in body:
            for inst in self.cfg.blocks[index].instructions:
                if inst.rd not in (None, 0):
                    writers.setdefault(inst.rd, []).append((index, inst))
        best: Optional[int] = None
        for reg, sites in writers.items():
            if len(sites) != 1:
                continue
            block_index, inst = sites[0]
            if inst.op is not Op.ADDI or inst.sources != (reg,) \
                    or not inst.imm:
                continue
            if any(block_index not in dom.get(src, set())
                   for src in back_sources):
                continue
            value = state.reg(reg)
            if value.maybe_float or not value.finite:
                continue
            trips = int((value.hi - value.lo) // abs(inst.imm)) + 1
            best = trips if best is None else min(best, trips)
        return best

    def _degrade(self, result: AbsintResult) -> None:
        """Produce the trivially sound TOP result: every reachable
        block gets a TOP entry state and accesses are recomputed from
        it, so no rule can claim anything a concrete run could break."""
        result.degraded = True
        result.envs = {}
        result.verdicts = {}
        result.accesses = {}
        result.trip_bounds = {}
        result.return_states = {}
        result.summaries = {fn: WORST_SUMMARY
                            for fn in self.cfg.functions}
        self._summaries = {fn: WORST_SUMMARY
                           for fn in self.cfg.functions}
        top = AbsState()
        for block in self.cfg.blocks:
            result.envs[block.index] = top
            self._flow_block(block, top, record=result)
        result.verdicts = {}


def analyze_program(program: Program, cfg: ControlFlowGraph,
                    regions: Optional[Iterable[Tuple[int, int]]] = None
                    ) -> AbsintResult:
    """Convenience wrapper: build and run the interpreter."""
    return AbstractInterpreter(program, cfg, regions).run()
