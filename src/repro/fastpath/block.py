"""Columnar cycle blocks: the unit of batched trace replay.

Per-record replay hands every observer one :class:`~repro.cpu.trace.
CycleRecord` object per cycle, which costs an object allocation, a
tuple of ``CommittedInst`` objects and a Python method call per
observer per cycle.  A :class:`CycleBlock` holds a whole chunk as
*parallel arrays* instead -- one column per record field, with
variable-length fields flattened behind prefix-sum offset arrays -- so
the per-cycle hot path becomes integer indexing into shared columns.

Packed representation (``n`` = number of records in the block):

* ``flags``                -- ``n`` raw per-record flag bytes
  (empty/exception/ordering/dispatch-pc/head bits);
* ``oldest_bank``          -- ``n`` bytes;
* ``fetch_pc``             -- ``n`` u64s;
* ``opt_vals``/``opt_base`` -- the present optional u64 fields
  (``rob_head``, ``exception``, ``dispatch_pc``, in that order) of all
  records flattened into one column behind ``n + 1`` u32 prefix
  offsets;
* ``commit_base``          -- ``n + 1`` u32 prefix offsets into the
  flattened commit columns;
* ``commit_addr``          -- flattened committed addresses;
* ``commit_meta``          -- one metadata byte per committed
  instruction (``bank | mispredicted << 6 | flushes << 7``);
* ``disp_base``/``disp_addr`` -- same layout for dispatched addresses.

The classic dense columns (``rob_empty``, ``rob_head``, ``exception``,
``exc_ordering``, ``dispatch_pc``) are *derived lazily* and cached --
flag bits expand through ``bytes.translate`` and the optional columns
through one list comprehension each -- so observers that touch every
cycle (the Oracle) pay one C-speed pass per column while sampling
profilers use the sparse ``*_at`` accessors and never materialize them.

Sampling profilers locate the next cycle that matters without
visiting every record: ``bisect`` over the prefix-sum offset arrays
finds the next committing/dispatching record in O(log n), and the
cached flag masks (``exc_mask``, ``disp_pc_mask``) answer "next
record with this flag" through C-speed ``bytes.find``/``rfind``.

Blocks are built three ways.  A live core grows one
:meth:`CycleBlock.open` block: stepped cycles arrive as row tuples
that :meth:`~CycleBlock.append_rows` columnarizes in bulk, and stall
runs through :meth:`~CycleBlock.append_run`;
:meth:`CycleBlock.from_runs` does the same for ``(record, count)``
runs.  :meth:`CycleBlock.concat` joins record ranges of existing
blocks (a memoized period repeated, a trace chunk assembled from
pieces); the v3 trace writer (:mod:`repro.cpu.tracefile`) serializes
exactly those columns as a chunk's payload.  Reading a v3 chunk back wraps the
stored columns in place as zero-copy ``memoryview`` casts over the
mmap-ed file; all forms support the indexing, slicing and bisection
the fast paths rely on.  ``record(i)``/``records()`` materialize
``CycleRecord`` objects on demand for the per-record reference and for
observers written without a columnar path.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, chain
from typing import Iterator, List, Optional, Sequence, Tuple

from ..cpu.trace import CommittedInst, CycleRecord

#: Flag-byte bits of a trace row (the v3 ``flags`` column, and the
#: legacy v1/v2 record header byte); every other module imports them.
_F_EMPTY = 1 << 0
_F_EXC = 1 << 1
_F_ORD = 1 << 2
_F_DISP_PC = 1 << 3
_F_HEAD = 1 << 4
#: Commit-meta bits above the 6-bit bank.
_M_MISPREDICT = 1 << 6
_M_FLUSHES = 1 << 7
#: Row fields read by name (see :meth:`CycleBlock.append_rows`).
_ROW_FLAGS = 0
_ROW_COMMITS = 4
_ROW_METAS = 5
_ROW_DISPATCHED = 6

#: ``translate`` tables expanding one flag bit into a 0/1 column.
_EMPTY_TABLE = bytes(1 if f & _F_EMPTY else 0 for f in range(256))
_ORD_TABLE = bytes(1 if f & _F_ORD else 0 for f in range(256))
_EXC_TABLE = bytes(1 if f & _F_EXC else 0 for f in range(256))
_DISP_PC_TABLE = bytes(1 if f & _F_DISP_PC else 0 for f in range(256))

class CycleBlock:
    """A batch of consecutive cycles in columnar form."""

    __slots__ = (
        "start_cycle", "n", "banks", "flags", "oldest_bank", "fetch_pc",
        "opt_vals", "opt_base", "commit_base", "commit_addr",
        "commit_meta", "disp_base", "disp_addr", "_rob_empty",
        "_rob_head", "_exception", "_exc_ordering", "_dispatch_pc",
        "_flags_bytes", "_exc_mask", "_disp_pc_mask",
    )

    def __init__(self, start_cycle: int, n: int, banks: int,
                 flags: bytearray, oldest_bank: bytearray,
                 fetch_pc: List[int], opt_vals: List[int],
                 opt_base: "array", commit_base: "array",
                 commit_addr: List[int], commit_meta: bytearray,
                 disp_base: "array", disp_addr: List[int]):
        self.start_cycle = start_cycle
        self.n = n
        self.banks = banks
        self.flags = flags
        self.oldest_bank = oldest_bank
        self.fetch_pc = fetch_pc
        self.opt_vals = opt_vals
        self.opt_base = opt_base
        self.commit_base = commit_base
        self.commit_addr = commit_addr
        self.commit_meta = commit_meta
        self.disp_base = disp_base
        self.disp_addr = disp_addr
        self._rob_empty: Optional[bytes] = None
        self._rob_head: Optional[List[Optional[int]]] = None
        self._exception: Optional[List[Optional[int]]] = None
        self._exc_ordering: Optional[bytes] = None
        self._dispatch_pc: Optional[List[Optional[int]]] = None
        self._flags_bytes: Optional[bytes] = None
        self._exc_mask: Optional[bytes] = None
        self._disp_pc_mask: Optional[bytes] = None

    # -- sparse accessors (cheap point lookups, no materialization) -----------

    def rob_empty_at(self, i: int) -> int:
        return self.flags[i] & _F_EMPTY

    def rob_head_at(self, i: int) -> Optional[int]:
        # The head address is the first optional u64 when present.
        if self.flags[i] & _F_HEAD:
            return self.opt_vals[self.opt_base[i]]
        return None

    def exception_at(self, i: int) -> Optional[int]:
        flags = self.flags[i]
        if flags & _F_EXC:
            return self.opt_vals[self.opt_base[i]
                                 + ((flags >> 4) & 1)]
        return None

    def dispatch_pc_at(self, i: int) -> Optional[int]:
        # The dispatch-stage PC is the last optional u64 when present.
        if self.flags[i] & _F_DISP_PC:
            return self.opt_vals[self.opt_base[i + 1] - 1]
        return None

    # -- dense columns (lazy, shared by every observer that needs them) -------

    @property
    def flags_bytes(self) -> bytes:
        """The flags column as ``bytes``.

        ``bytes`` supports the C-speed ``translate``/``find``/``count``
        scans the vectorized observers run; ``memoryview``-backed
        blocks (mmap-ed v3 chunks) pay one copy here, amortized across
        every mask derived from it.
        """
        if self._flags_bytes is None:
            flags = self.flags
            self._flags_bytes = (flags if type(flags) is bytes
                                 else bytes(flags))
        return self._flags_bytes

    @property
    def exc_mask(self) -> bytes:
        """0/1 byte per record: record carries an exception."""
        if self._exc_mask is None:
            self._exc_mask = self.flags_bytes.translate(_EXC_TABLE)
        return self._exc_mask

    @property
    def disp_pc_mask(self) -> bytes:
        """0/1 byte per record: record has a dispatch-stage PC."""
        if self._disp_pc_mask is None:
            self._disp_pc_mask = \
                self.flags_bytes.translate(_DISP_PC_TABLE)
        return self._disp_pc_mask

    @property
    def rob_empty(self) -> bytes:
        if self._rob_empty is None:
            self._rob_empty = self.flags_bytes.translate(_EMPTY_TABLE)
        return self._rob_empty

    @property
    def exc_ordering(self) -> bytes:
        if self._exc_ordering is None:
            self._exc_ordering = self.flags_bytes.translate(_ORD_TABLE)
        return self._exc_ordering

    @property
    def rob_head(self) -> List[Optional[int]]:
        if self._rob_head is None:
            vals, base, flags = self.opt_vals, self.opt_base, self.flags
            self._rob_head = [vals[base[i]] if flags[i] & _F_HEAD
                              else None for i in range(self.n)]
        return self._rob_head

    @property
    def exception(self) -> List[Optional[int]]:
        if self._exception is None:
            vals, base, flags = self.opt_vals, self.opt_base, self.flags
            self._exception = [
                vals[base[i] + ((flags[i] >> 4) & 1)]
                if flags[i] & _F_EXC else None
                for i in range(self.n)]
        return self._exception

    @property
    def dispatch_pc(self) -> List[Optional[int]]:
        if self._dispatch_pc is None:
            vals, base, flags = self.opt_vals, self.opt_base, self.flags
            self._dispatch_pc = [
                vals[base[i + 1] - 1] if flags[i] & _F_DISP_PC
                else None for i in range(self.n)]
        return self._dispatch_pc

    # -- record materialization -----------------------------------------------

    def record(self, i: int) -> CycleRecord:
        """Materialize record *i* as a :class:`CycleRecord`.

        Only the per-record paths call this: the reference replays
        (:func:`~repro.cpu.tracefile.read_trace`) and the default
        :meth:`~repro.cpu.trace.TraceObserver.on_block` of an observer
        written without a columnar path.  No shipped observer but
        :class:`~repro.cpu.trace.TraceCollector` does.
        """
        lo, hi = self.commit_base[i], self.commit_base[i + 1]
        committed = tuple(
            CommittedInst(self.commit_addr[k], self.commit_meta[k] & 0x3F,
                          bool(self.commit_meta[k] & _M_MISPREDICT),
                          bool(self.commit_meta[k] & _M_FLUSHES))
            for k in range(lo, hi))
        dlo, dhi = self.disp_base[i], self.disp_base[i + 1]
        return CycleRecord(
            cycle=self.start_cycle + i, committed=committed,
            rob_head=self.rob_head_at(i),
            rob_empty=bool(self.flags[i] & _F_EMPTY),
            exception=self.exception_at(i),
            exception_is_ordering=bool(self.flags[i] & _F_ORD),
            dispatched=tuple(self.disp_addr[dlo:dhi]),
            dispatch_pc=self.dispatch_pc_at(i),
            fetch_pc=self.fetch_pc[i], oldest_bank=self.oldest_bank[i])

    def records(self) -> Iterator[CycleRecord]:
        """Materialize every record (the ``on_cycle`` fallback path)."""
        for i in range(self.n):
            yield self.record(i)

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return (f"<block [{self.start_cycle}, "
                f"{self.start_cycle + self.n}) commits="
                f"{len(self.commit_addr)}>")

    # -- construction ---------------------------------------------------------

    @classmethod
    def open(cls, start_cycle: int, banks: int) -> "CycleBlock":
        """An empty block that grows by :meth:`append_rows` and
        :meth:`append_run`; it is handed out only once complete."""
        return cls(start_cycle, 0, banks, bytearray(), bytearray(), [], [],
                   array("I", [0]), array("I", [0]), [], bytearray(),
                   array("I", [0]), [])

    def append_rows(self, rows: Sequence[tuple]) -> None:
        """Append one cycle per row, every column in one C-speed pass.

        A row is one cycle in the column layout, as a tuple ``(flags,
        oldest_bank, fetch_pc, opts, commit_addrs, commit_metas,
        disp_addrs, heads)``: ``opts`` lists the present optional u64s
        in column order and ``heads`` is not stored (see
        :meth:`Core._row <repro.cpu.core.Core._row>`).
        """
        if not rows:
            return
        flags, oldest, fetch_pc, opts, commits, metas, disps, _ = \
            zip(*rows)
        self.flags += bytes(flags)
        self.oldest_bank += bytes(oldest)
        self.fetch_pc += fetch_pc
        _extend_groups(self.opt_base, self.opt_vals, opts)
        _extend_groups(self.commit_base, self.commit_addr, commits)
        self.commit_meta += bytes(chain.from_iterable(metas))
        _extend_groups(self.disp_base, self.disp_addr, disps)
        self.n += len(rows)

    def append_run(self, row: tuple, count: int) -> None:
        """Append *count* cycles identical to *row* (a stall run).

        Columns expand through C-speed sequence multiplication instead
        of per-cycle appends.
        """
        flags, oldest, fetch_pc, opts, commits, metas, disps, _ = row
        self.flags += bytes((flags,)) * count
        self.oldest_bank += bytes((oldest,)) * count
        self.fetch_pc += [fetch_pc] * count
        if opts:
            self.opt_vals += opts * count
        _extend_prefix(self.opt_base, len(opts), count)
        if commits:
            self.commit_addr += commits * count
            self.commit_meta += bytes(metas) * count
        _extend_prefix(self.commit_base, len(commits), count)
        if disps:
            self.disp_addr += disps * count
        _extend_prefix(self.disp_base, len(disps), count)
        self.n += count

    @classmethod
    def from_runs(cls, runs: Sequence[Tuple[CycleRecord, int]],
                  banks: int) -> "CycleBlock":
        """Columnarize ``(record, count)`` runs of consecutive cycles.

        A run stands for *count* cycles identical to its record except
        for the cycle number; a run of count 1 is one plain cycle.  The
        block starts at the first record's cycle; later records' cycle
        numbers are not read.  Legacy trace conversion and tests build
        blocks this way; a live run's core appends its rows to an open
        block directly.
        """
        block = cls.open(runs[0][0].cycle if runs else 0, banks)
        for record, count in runs:
            block.append_run(_record_row(record), count)
        return block

    @classmethod
    def concat(cls, parts: Sequence[Tuple["CycleBlock", int, int]]
               ) -> "CycleBlock":
        """Join record ranges ``[lo, hi)`` of blocks into one block.

        The result starts at the first range's first cycle and takes
        the first block's bank count; every column is copied by slice,
        and only the prefix-sum bases are rebased one value at a time.
        """
        first, first_lo, _ = parts[0]
        flags = bytearray()
        oldest = bytearray()
        fetch_pc: List[int] = []
        opt_vals: List[int] = []
        opt_base = array("I", [0])
        commit_base = array("I", [0])
        commit_addr: List[int] = []
        commit_meta = bytearray()
        disp_base = array("I", [0])
        disp_addr: List[int] = []
        n = 0
        for block, lo, hi in parts:
            flags += block.flags[lo:hi]
            oldest += block.oldest_bank[lo:hi]
            fetch_pc += block.fetch_pc[lo:hi]
            _extend_range(opt_base, opt_vals, block.opt_base,
                          block.opt_vals, lo, hi)
            c_lo, c_hi = _extend_range(commit_base, commit_addr,
                                       block.commit_base,
                                       block.commit_addr, lo, hi)
            commit_meta += block.commit_meta[c_lo:c_hi]
            _extend_range(disp_base, disp_addr, block.disp_base,
                          block.disp_addr, lo, hi)
            n += hi - lo
        return cls(first.start_cycle + first_lo, n, first.banks, flags,
                   oldest, fetch_pc, opt_vals, opt_base, commit_base,
                   commit_addr, commit_meta, disp_base, disp_addr)


def _extend_range(base: "array", values: List[int], src_base,
                  src_values, lo: int, hi: int) -> Tuple[int, int]:
    """Append records ``[lo, hi)`` of one flattened column and its
    prefix-sum *src_base*; returns the copied value range."""
    v_lo, v_hi = src_base[lo], src_base[hi]
    values += src_values[v_lo:v_hi]
    shift = base[-1] - v_lo
    if shift:
        base.extend(map(shift.__add__, src_base[lo + 1:hi + 1]))
    else:
        base.extend(src_base[lo + 1:hi + 1])
    return v_lo, v_hi


def _extend_groups(base: "array", values: List[int], groups) -> None:
    """Flatten *groups* onto *values*, one prefix-sum entry per group."""
    last = base.pop()
    base.extend(accumulate(map(len, groups), initial=last))
    values += chain.from_iterable(groups)


def _record_row(record: CycleRecord) -> tuple:
    """*record* as a row (see :meth:`CycleBlock.append_rows`)."""
    flags = 0
    opts: List[int] = []
    if record.rob_empty:
        flags |= _F_EMPTY
    if record.exception_is_ordering:
        flags |= _F_ORD
    if record.rob_head is not None:
        flags |= _F_HEAD
        opts.append(record.rob_head)
    if record.exception is not None:
        flags |= _F_EXC
        opts.append(record.exception)
    if record.dispatch_pc is not None:
        flags |= _F_DISP_PC
        opts.append(record.dispatch_pc)
    committed = record.committed
    return (flags, record.oldest_bank, record.fetch_pc, opts,
            [c.addr for c in committed],
            [(c.bank & 0x3F) | (_M_MISPREDICT if c.mispredicted else 0)
             | (_M_FLUSHES if c.flushes else 0) for c in committed],
            list(record.dispatched), ())


def _extend_prefix(base: "array", k: int, count: int) -> None:
    """Append *count* prefix-sum entries, each advancing by *k*."""
    last = base[-1]
    if k:
        base.extend(range(last + k, last + k * count + 1, k))
    else:
        base.extend([last] * count)

