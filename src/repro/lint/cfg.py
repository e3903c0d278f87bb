"""Control-flow graph construction over ``Program`` text.

The linter's static layer: the program text is partitioned into basic
blocks per function region, intra-function edges follow branch/jump
semantics (conditional branches fork, ``jal`` is a call with a
fall-through return site, ``jalr x0`` is a return), and on top of the
graph we compute interprocedural reachability from the entry point,
dominators, and natural loops via back edges.  The Imagick anti-pattern
(Section 6 of the paper) needs one interprocedural refinement: ``ceil``
itself is loop-free, so a function counts as *hot* when it is called --
transitively -- from inside a natural loop.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..isa.instruction import Instruction
from ..isa.opcodes import CONTROL_KINDS, Kind
from ..isa.program import Program


@dataclass
class BasicBlock:
    """A maximal straight-line run of instructions within one function."""

    index: int
    function: str
    instructions: List[Instruction]
    #: Intra-function CFG edges (block indices).
    successors: List[int] = field(default_factory=list)
    predecessors: List[int] = field(default_factory=list)
    #: Addresses this block transfers to as calls (direct ``jal`` targets,
    #: including tail jumps that leave the function).
    call_targets: List[int] = field(default_factory=list)
    #: The block ends by falling past the last instruction of its
    #: function (no in-function fall-through successor exists).
    falls_off: bool = False

    @property
    def start(self) -> int:
        return self.instructions[0].addr

    @property
    def end(self) -> int:
        """One past the last instruction (half-open, like FunctionSymbol)."""
        return self.instructions[-1].next_addr

    @property
    def terminator(self) -> Instruction:
        return self.instructions[-1]

    def __repr__(self) -> str:
        return (f"<block #{self.index} {self.start:#x}..{self.end:#x} "
                f"{self.function} -> {self.successors}>")


@dataclass(frozen=True)
class Loop:
    """A natural loop: back edge *tail* -> *header*, and its body."""

    function: str
    header: int
    back_edge: Tuple[int, int]
    body: FrozenSet[int]

    def __contains__(self, block_index: int) -> bool:
        return block_index in self.body


class ControlFlowGraph:
    """Basic blocks, edges, reachability, dominators and natural loops."""

    def __init__(self, program: Program):
        self.program = program
        self.blocks: List[BasicBlock] = []
        #: function name -> block indices, in address order.
        self.functions: Dict[str, List[int]] = {}
        self._starts: List[int] = []
        self._build_blocks()
        self._build_edges()
        self.entry_block = self.block_index_of(program.entry)
        self.reachable = self._compute_reachable()
        self.loops = self._find_loops()
        self.loop_called = self._loop_called_functions()

    # -- block construction ---------------------------------------------------

    def _region_name(self, inst: Instruction, anon_start: int) -> str:
        func = self.program.function_of(inst.addr)
        return func.name if func is not None else f"<text:{anon_start:#x}>"

    def _build_blocks(self) -> None:
        program = self.program
        insts = sorted(program.instructions, key=lambda i: i.addr)
        targets: Set[int] = set()
        for inst in insts:
            targets.update(t for t in inst.static_targets() if t in program)
        targets.add(program.entry)
        for func in program.functions:
            if func.lo in program:
                targets.add(func.lo)

        current: List[Instruction] = []
        current_region: Optional[str] = None
        anon_start = insts[0].addr

        def flush() -> None:
            if current:
                block = BasicBlock(len(self.blocks), current_region or "?",
                                   list(current))
                self.blocks.append(block)
                self.functions.setdefault(block.function, []).append(
                    block.index)
                current.clear()

        prev: Optional[Instruction] = None
        for inst in insts:
            if not self.program.function_of(inst.addr):
                if prev is None or self.program.function_of(prev.addr):
                    anon_start = inst.addr
            region = self._region_name(inst, anon_start)
            is_leader = (inst.addr in targets
                         or region != current_region
                         or (prev is not None
                             and (prev.kind in CONTROL_KINDS
                                  or prev.next_addr != inst.addr)))
            if is_leader:
                flush()
                current_region = region
            current.append(inst)
            prev = inst
        flush()
        self._starts = [b.start for b in self.blocks]

    def _build_edges(self) -> None:
        for block in self.blocks:
            self._add_edges_for(block)
        for block in self.blocks:
            for succ in block.successors:
                self.blocks[succ].predecessors.append(block.index)

    def _add_edges_for(self, block: BasicBlock) -> None:
        term = block.terminator
        kind = term.kind

        if kind is Kind.BRANCH:
            target = self._intra_successor(block, term.imm)
            if target is not None:
                self._link(block, target)
            else:
                block.call_targets.append(term.imm)
            self._fall_through(block)
        elif kind in (Kind.CALL, Kind.JUMP):
            if term.is_jump:
                target = self._intra_successor(block, term.imm)
                if target is not None:
                    self._link(block, target)
                else:  # tail jump out of the function
                    block.call_targets.append(term.imm)
            else:
                block.call_targets.append(term.imm)
                self._fall_through(block)
        elif kind is Kind.RETURN:
            if term.can_fall_through:  # jalr as indirect call
                self._fall_through(block)
            # a true return has no static successors
        elif kind in (Kind.HALT, Kind.SRET):
            pass
        else:  # straight-line block split by a leader
            self._fall_through(block)

    def _fall_through(self, block: BasicBlock) -> None:
        next_block = self._intra_successor(block, block.end)
        if next_block is not None:
            self._link(block, next_block)
        else:
            block.falls_off = True

    def _intra_successor(self, block: BasicBlock,
                         addr: int) -> Optional[int]:
        """Block index at *addr* if it belongs to the same function."""
        index = self.block_index_of(addr)
        if index is None:
            return None
        if self.blocks[index].function != block.function:
            return None
        return index

    @staticmethod
    def _link(src: BasicBlock, dst_index: int) -> None:
        if dst_index not in src.successors:
            src.successors.append(dst_index)

    # -- lookups --------------------------------------------------------------

    def block_index_of(self, addr: int) -> Optional[int]:
        """Index of the block containing *addr*, or ``None``."""
        pos = bisect.bisect_right(self._starts, addr) - 1
        if pos < 0:
            return None
        block = self.blocks[pos]
        if not block.start <= addr < block.end:
            return None
        if addr not in self.program:
            return None
        return pos

    def block_of(self, addr: int) -> Optional[BasicBlock]:
        index = self.block_index_of(addr)
        return self.blocks[index] if index is not None else None

    # -- reachability ---------------------------------------------------------

    def _compute_reachable(self) -> Set[int]:
        """Blocks reachable from the entry, following calls and assuming
        every callee returns to the call's fall-through."""
        if self.entry_block is None:
            return set()
        seen: Set[int] = set()
        work = [self.entry_block]
        while work:
            index = work.pop()
            if index in seen:
                continue
            seen.add(index)
            block = self.blocks[index]
            work.extend(block.successors)
            for target in block.call_targets:
                callee = self.block_index_of(target)
                if callee is not None:
                    work.append(callee)
            if block.falls_off:
                # Execution continues into the next function (if any).
                nxt = self.block_index_of(block.end)
                if nxt is not None:
                    work.append(nxt)
        return seen

    # -- dominators and loops -------------------------------------------------

    def dominators(self, function: str) -> Dict[int, Set[int]]:
        """Iterative dominator sets over one function's intra-CFG.

        The root is the function's first block; blocks unreachable from
        it within the function are omitted.
        """
        indices = self.functions.get(function, [])
        if not indices:
            return {}
        root = indices[0]
        local: Set[int] = set()
        work = [root]
        while work:
            index = work.pop()
            if index in local:
                continue
            local.add(index)
            work.extend(self.blocks[index].successors)

        dom: Dict[int, Set[int]] = {root: {root}}
        for index in local - {root}:
            dom[index] = set(local)
        changed = True
        while changed:
            changed = False
            for index in local:
                if index == root:
                    continue
                preds = [p for p in self.blocks[index].predecessors
                         if p in local]
                if not preds:
                    continue
                new = set.intersection(*[dom[p] for p in preds]) | {index}
                if new != dom[index]:
                    dom[index] = new
                    changed = True
        return dom

    def _find_loops(self) -> List[Loop]:
        loops: List[Loop] = []
        for function in self.functions:
            dom = self.dominators(function)
            for index in dom:
                block = self.blocks[index]
                for succ in block.successors:
                    if succ in dom.get(index, ()):  # back edge index->succ
                        loops.append(Loop(
                            function, succ, (index, succ),
                            self._natural_loop(succ, index)))
        return loops

    def _natural_loop(self, header: int, tail: int) -> FrozenSet[int]:
        """All blocks that reach *tail* without passing through *header*.

        The header is seeded into the body so the backwards walk stops
        at it -- in particular, a self-loop (tail == header) must not
        pull the header's own predecessors in.
        """
        body: Set[int] = {header}
        work = [] if tail in body else [tail]
        body.add(tail)
        while work:
            index = work.pop()
            for pred in self.blocks[index].predecessors:
                if pred not in body:
                    body.add(pred)
                    work.append(pred)
        return frozenset(body)

    def _loop_called_functions(self) -> Dict[str, int]:
        """Functions called (transitively) from inside a natural loop.

        Maps the function name to the address of the loop-header block
        it is (transitively) called from, for diagnostics.
        """
        called: Dict[str, int] = {}
        work: List[Tuple[str, int]] = []
        for loop in self.loops:
            header_addr = self.blocks[loop.header].start
            for index in loop.body:
                if index not in self.reachable:
                    continue
                for target in self.blocks[index].call_targets:
                    callee = self.block_of(target)
                    if callee is not None:
                        work.append((callee.function, header_addr))
        while work:
            name, header_addr = work.pop()
            if name in called:
                continue
            called[name] = header_addr
            for index in self.functions.get(name, []):
                if index not in self.reachable:
                    continue
                for target in self.blocks[index].call_targets:
                    callee = self.block_of(target)
                    if callee is not None:
                        work.append((callee.function, header_addr))
        return called

    # -- queries used by rules ------------------------------------------------

    def innermost_loop(self, addr: int) -> Optional[Loop]:
        """The smallest natural loop whose body contains *addr*."""
        index = self.block_index_of(addr)
        if index is None:
            return None
        best: Optional[Loop] = None
        for loop in self.loops:
            if index in loop.body:
                if best is None or len(loop.body) < len(best.body):
                    best = loop
        return best

    def hot_context(self, addr: int) -> Optional[Tuple[str, int]]:
        """Why *addr* executes repeatedly, or ``None`` if it does not.

        Returns ``("loop", header_addr)`` when the address sits inside a
        natural loop, or ``("called-from-loop", header_addr)`` when its
        function is transitively called from one.
        """
        loop = self.innermost_loop(addr)
        if loop is not None:
            return ("loop", self.blocks[loop.header].start)
        block = self.block_of(addr)
        if block is not None and block.function in self.loop_called:
            return ("called-from-loop", self.loop_called[block.function])
        return None

    def __repr__(self) -> str:
        return (f"<CFG {self.program.name!r}: {len(self.blocks)} blocks, "
                f"{len(self.functions)} functions, {len(self.loops)} loops>")


def build_cfg(program: Program) -> ControlFlowGraph:
    """Build the control-flow graph of *program*."""
    return ControlFlowGraph(program)
