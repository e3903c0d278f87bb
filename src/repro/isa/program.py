"""Program container and builder.

A :class:`Program` is the unit the simulator executes and the profilers
symbolise: a text segment of static instructions, a function symbol table,
an entry point, and initial data memory.  The :class:`ProgramBuilder` is
the programmatic construction API used by both the assembler and the
synthetic workload generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional

from .instruction import INSTRUCTION_BYTES, Instruction
from .opcodes import Op

#: Default base address of application text.
TEXT_BASE = 0x1_0000
#: Base address of kernel (exception handler) text; used by ``repro.kernel``.
KERNEL_TEXT_BASE = 0x8_0000


@dataclass(frozen=True)
class FunctionSymbol:
    """A named function covering the half-open address range [lo, hi)."""

    name: str
    lo: int
    hi: int

    def contains(self, addr: int) -> bool:
        return self.lo <= addr < self.hi


class Program:
    """An executable program image."""

    def __init__(self, instructions: List[Instruction],
                 functions: List[FunctionSymbol], entry: int,
                 labels: Optional[Dict[str, int]] = None,
                 data: Optional[Dict[int, float]] = None,
                 name: str = "program",
                 lines: Optional[Dict[int, int]] = None,
                 ignores: Optional[Dict[int, FrozenSet[str]]] = None):
        if not instructions:
            raise ValueError("a program needs at least one instruction")
        self.name = name
        self.instructions = instructions
        self.functions = sorted(functions, key=lambda f: f.lo)
        self.entry = entry
        self.labels = dict(labels or {})
        #: Initial data memory contents (word address -> value).
        self.data = dict(data or {})
        #: Source line numbers (instruction address -> 1-based line),
        #: populated by the assembler; empty for generated programs.
        self.lines = dict(lines or {})
        #: Per-instruction lint suppressions (``# lint: ignore[RULE]``
        #: pragmas): instruction address -> rule ids, with ``"*"``
        #: meaning every rule.
        self.ignores = dict(ignores or {})
        self._by_addr: Dict[int, Instruction] = {
            inst.addr: inst for inst in instructions
        }
        if len(self._by_addr) != len(instructions):
            raise ValueError("duplicate instruction addresses in program")
        if entry not in self._by_addr:
            raise ValueError(f"entry point {entry:#x} is not an instruction")

    # -- lookups -------------------------------------------------------------

    def fetch(self, addr: int) -> Optional[Instruction]:
        """Return the instruction at *addr*, or ``None`` if out of text."""
        return self._by_addr.get(addr)

    def __contains__(self, addr: int) -> bool:
        return addr in self._by_addr

    def __len__(self) -> int:
        return len(self.instructions)

    @property
    def text_lo(self) -> int:
        return self.instructions[0].addr

    @property
    def text_hi(self) -> int:
        return self.instructions[-1].addr + INSTRUCTION_BYTES

    def function_of(self, addr: int) -> Optional[FunctionSymbol]:
        """Return the function containing *addr* (linear ranges, few funcs)."""
        for func in self.functions:
            if func.contains(addr):
                return func
        return None

    def addresses(self) -> Iterable[int]:
        return self._by_addr.keys()

    def merged_with(self, other: "Program") -> "Program":
        """Return a new program combining this text with *other*'s.

        Used to link the kernel's exception-handler text into an
        application image.  Address ranges must not overlap.
        """
        overlap = set(self._by_addr) & set(other._by_addr)
        if overlap:
            raise ValueError("programs overlap at "
                             + ", ".join(hex(a) for a in sorted(overlap)))
        merged = Program(self.instructions + other.instructions,
                         self.functions + other.functions, self.entry,
                         {**self.labels, **other.labels}, None, self.name,
                         {**self.lines, **other.lines},
                         {**self.ignores, **other.ignores})
        # The one copy of the data image: the constructor would copy a
        # merged dict a second time.
        merged.data = {**self.data, **other.data}
        return merged

    def __repr__(self) -> str:
        return (f"<Program {self.name!r}: {len(self.instructions)} insts, "
                f"{len(self.functions)} funcs, entry={self.entry:#x}>")


@dataclass
class _PendingBranch:
    index: int
    label: str


class ProgramBuilder:
    """Incrementally build a :class:`Program`.

    Branch and jump targets may be given as label strings; they are
    resolved when :meth:`build` is called, so forward references work.
    """

    def __init__(self, base: int = TEXT_BASE, name: str = "program"):
        self.base = base
        self.name = name
        self._insts: List[Instruction] = []
        self._labels: Dict[str, int] = {}
        self._pending: List[_PendingBranch] = []
        self._functions: List[dict] = []
        self._data: Dict[int, float] = {}
        self._entry_label: Optional[str] = None
        self._lines: Dict[int, int] = {}
        self._line: Optional[int] = None
        self._ignores: Dict[int, FrozenSet[str]] = {}
        self._ignore: Optional[FrozenSet[str]] = None

    # -- construction --------------------------------------------------------

    @property
    def next_addr(self) -> int:
        return self.base + len(self._insts) * INSTRUCTION_BYTES

    def label(self, name: str) -> "ProgramBuilder":
        if name in self._labels:
            if self._labels[name] == self.next_addr:
                return self  # e.g. ``.func f`` directly followed by ``f:``
            raise ValueError(f"duplicate label {name!r}")
        self._labels[name] = self.next_addr
        return self

    def func(self, name: str) -> "ProgramBuilder":
        """Open a function; it spans until the next ``func`` or ``build``."""
        self._close_function()
        self._functions.append({"name": name, "lo": self.next_addr})
        if name not in self._labels:
            self.label(name)
        return self

    def _close_function(self) -> None:
        if self._functions and "hi" not in self._functions[-1]:
            self._functions[-1]["hi"] = self.next_addr

    def entry(self, label: str) -> "ProgramBuilder":
        self._entry_label = label
        return self

    def word(self, addr: int, value: float) -> "ProgramBuilder":
        """Set an initial data-memory word."""
        self._data[addr] = value
        return self

    def set_line(self, line_no: Optional[int]) -> "ProgramBuilder":
        """Tag subsequently emitted instructions with a source line."""
        self._line = line_no
        return self

    def set_ignores(self,
                    rules: Optional[FrozenSet[str]]) -> "ProgramBuilder":
        """Tag subsequently emitted instructions with lint suppressions
        (rule ids; ``"*"`` suppresses every rule).  ``None`` clears."""
        self._ignore = rules
        return self

    def emit(self, op: Op, rd: Optional[int] = None,
             sources: tuple = (), imm: int = 0,
             target: Optional[str] = None) -> Instruction:
        """Append an instruction; *target* is a label for control flow."""
        inst = Instruction(op, rd, tuple(sources), imm, self.next_addr)
        self._insts.append(inst)
        if self._line is not None:
            # Keyed by address: the pending-branch rebuild in build()
            # replaces instructions in place at the same address.
            self._lines[inst.addr] = self._line
        if self._ignore is not None:
            self._ignores[inst.addr] = self._ignore
        if target is not None:
            self._pending.append(_PendingBranch(len(self._insts) - 1, target))
        return inst

    # -- finalisation ---------------------------------------------------------

    def build(self) -> Program:
        self._close_function()
        for pending in self._pending:
            if pending.label not in self._labels:
                raise ValueError(f"undefined label {pending.label!r}")
            inst = self._insts[pending.index]
            self._insts[pending.index] = Instruction(
                inst.op, inst.rd, inst.sources,
                self._labels[pending.label], inst.addr)
        self._pending.clear()
        functions = [FunctionSymbol(f["name"], f["lo"], f["hi"])
                     for f in self._functions]
        if self._entry_label is not None:
            entry = self._labels[self._entry_label]
        elif functions:
            entry = functions[0].lo
        else:
            entry = self.base
        return Program(list(self._insts), functions, entry,
                       dict(self._labels), dict(self._data), self.name,
                       dict(self._lines), dict(self._ignores))
