"""Symbolization: mapping instruction addresses to profile symbols.

Profiles can be built at three granularities (Section 4): individual
instructions, basic blocks, and functions.  Basic blocks are recovered
from the static CFG of the program binary: a new block starts at every
function entry, at every static control-flow target, and after every
control-flow instruction.

A :class:`Symbolizer` keeps one ``addr -> symbol`` table per
granularity and resolves each address at most once per table: every
profile, error and cycle stack built from one symbolizer indexes the
same tables.
"""

from __future__ import annotations

import bisect
import enum
from typing import Callable, Dict, Hashable, List

from ..isa.instruction import INSTRUCTION_BYTES
from ..isa.opcodes import Kind
from ..isa.program import Program

#: Symbol for addresses outside the program text (e.g. a software sample
#: whose skidded PC ran off the text segment).
OFF_TEXT = "<off-text>"
#: Function symbol for text addresses not covered by a function.
UNKNOWN_FUNCTION = "<unknown>"


class Granularity(enum.Enum):
    INSTRUCTION = "instruction"
    BASIC_BLOCK = "basic-block"
    FUNCTION = "function"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class SymbolTable(dict):
    """``addr -> symbol`` at one granularity, filled on first lookup.

    Indexing an address resolves it through the granularity's mapping
    the first time and reads the stored symbol every time after.
    """

    __slots__ = ("_resolve",)

    def __init__(self, resolve: Callable[[int], Hashable]):
        super().__init__()
        self._resolve = resolve

    def __missing__(self, addr: int) -> Hashable:
        symbol = self[addr] = self._resolve(addr)
        return symbol


class Symbolizer:
    """Maps addresses to symbols at each granularity for one program."""

    def __init__(self, program: Program):
        self.program = program
        self._leaders = self._find_leaders()
        self._func_lo = [f.lo for f in program.functions]
        self._func = program.functions
        self._tables = {
            Granularity.INSTRUCTION: SymbolTable(self.instruction),
            Granularity.BASIC_BLOCK: SymbolTable(self.basic_block),
            Granularity.FUNCTION: SymbolTable(self.function),
        }

    def _find_leaders(self) -> List[int]:
        program = self.program
        leaders = {program.text_lo}
        for func in program.functions:
            leaders.add(func.lo)
        for inst in program.instructions:
            if inst.kind in (Kind.BRANCH, Kind.JUMP, Kind.CALL):
                if inst.imm in program:
                    leaders.add(inst.imm)
            if inst.is_control or inst.is_halt or \
                    inst.flushes_on_commit or inst.is_serializing:
                follower = inst.addr + INSTRUCTION_BYTES
                if follower in program:
                    leaders.add(follower)
        return sorted(leaders)

    # -- mapping -------------------------------------------------------------

    def instruction(self, addr: int) -> Hashable:
        return addr if addr in self.program else OFF_TEXT

    def basic_block(self, addr: int) -> Hashable:
        if addr not in self.program:
            return OFF_TEXT
        index = bisect.bisect_right(self._leaders, addr) - 1
        return self._leaders[max(index, 0)]

    def function(self, addr: int) -> Hashable:
        if addr not in self.program:
            return OFF_TEXT
        index = bisect.bisect_right(self._func_lo, addr) - 1
        if index >= 0 and self._func[index].contains(addr):
            return self._func[index].name
        return UNKNOWN_FUNCTION

    def table(self, granularity: Granularity) -> SymbolTable:
        """The ``addr -> symbol`` table at *granularity*.  Index it
        (``table[addr]``); it resolves each address once."""
        return self._tables[granularity]

    def symbol(self, addr: int, granularity: Granularity) -> Hashable:
        return self._tables[granularity][addr]

    def aggregate(self, weights, granularity: Granularity) -> Dict:
        """Collapse an ``[(addr, weight)]`` attribution onto symbols."""
        table = self._tables[granularity]
        out: Dict = {}
        for addr, weight in weights:
            sym = table[addr]
            out[sym] = out.get(sym, 0.0) + weight
        return out

    @property
    def num_basic_blocks(self) -> int:
        return len(self._leaders)
