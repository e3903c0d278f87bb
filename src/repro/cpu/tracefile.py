"""Binary serialization of the commit-stage trace.

The paper's methodology streams a per-cycle trace out of FireSim and
processes it on the CPU side; re-running a new profiler configuration
does not require re-simulating.  This module provides the same record/
replay split for our simulator: :class:`TraceWriterV3` is a trace
observer that serializes the :class:`~repro.fastpath.block.CycleBlock`
columns it is handed (its one input, :meth:`TraceWriterV3.on_block`),
:class:`TraceReaderV3` maps the file for random chunk access, and
:func:`read_trace` / :func:`replay_trace` reconstruct the records one
at a time (the per-record reference replay).

Format v3 (``TIPTRC03``) is the only format written.  It is
*chunk-indexed*, so a trace can be replayed out-of-band by parallel
workers (see :mod:`repro.parallel`), and *zero-copy columnar*:

* file header: magic, u8 banks, u8 flags (bit0: zlib-compressed
  payloads), u32 chunk_cycles (records per full chunk), 2 pad bytes so
  the first chunk header lands on an 8-byte boundary;
* a sequence of chunks, each a 96-byte header (start cycle, record
  count, payload sizes, carried machine state, flattened column
  lengths and per-column offsets) followed by the raw
  :class:`~repro.fastpath.block.CycleBlock` columns of ``chunk_cycles``
  consecutive cycles: flags bytes, oldest-bank bytes, ``array('I')``
  prefix-sum bases, packed-u64 optional/commit/dispatch columns and the
  commit-meta bytes, each column 8-byte aligned.

Decoding a chunk is therefore a handful of ``memoryview`` casts over an
``mmap`` of the trace file -- no per-record Python loop -- and
processes that map the same file share its pages.  Everything is
little-endian on disk; on big-endian hosts the reader falls back to
``array.byteswap`` copies.  zlib compression stays available as an
opt-out that falls back to buffer copies.  Cycle numbers are implicit
(records are dense from cycle 0), which keeps the format compact.

The carried state (:class:`ChunkCarry`) is everything a profiler needs
to *cold-start* at a chunk boundary exactly as if it had consumed the
whole prefix: the Offending Instruction Register mirror (address, flag,
flush kind), the last committed address, and whether the previous cycle
flushed (for the sanitizer's drain check).  All of it is derivable from
the trace prefix, so it is computed once at record time.  The writer
keeps computing it for format compatibility; no replay reads it, since
replay always starts at the first chunk.

Formats v1 (``TIPTRC01``) and v2 (``TIPTRC02``) are read-only legacy
input: :func:`read_trace` still decodes them and :func:`convert_trace`
(``repro convert-trace``) upgrades them to v3 losslessly, handing the
writer their records as blocks of ``chunk_cycles`` records.  v1 is a flat
stream (magic, banks byte, one record per cycle); v2 frames the same
records in chunks behind ``_CHUNK_HDR`` headers.  Their per-record
encoding (little-endian; v3's flags and commit-meta columns hold the
same header and meta bytes):

* header byte: bit0 rob_empty, bit1 has_exception, bit2 ordering,
  bit3 has_dispatch_pc, bit4 has_rob_head;
* counts byte: low nibble = #committed, high nibble = #dispatched;
* u8 oldest_bank;
* u64 fetch_pc;
* optional u64 rob_head, u64 exception, u64 dispatch_pc;
* per committed entry: u64 addr, u8 (bank | mispredicted<<6 |
  flushes<<7);
* per dispatched entry: u64 addr.
"""

from __future__ import annotations

import io
import mmap
import os
import struct
import sys
import zlib
from array import array
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from typing import (Any, BinaryIO, Iterator, List, Optional, Sequence,
                    Tuple, Union)

from ..fastpath.block import (_F_DISP_PC, _F_EMPTY, _F_EXC, _F_HEAD,
                              _F_ORD, _M_FLUSHES, _M_MISPREDICT, CycleBlock)
from .trace import CommittedInst, CycleRecord, TraceObserver

MAGIC = b"TIPTRC01"
MAGIC_V2 = b"TIPTRC02"
MAGIC_V3 = b"TIPTRC03"

_LITTLE = sys.byteorder == "little"

#: Records per chunk (one record per cycle).
DEFAULT_CHUNK_CYCLES = 4096

_U64 = struct.Struct("<Q")
_HDR = struct.Struct("<BBB")
#: File header after the magic (v2 and v3): banks, flags, chunk_cycles.
_FILE_HDR_V2 = struct.Struct("<BBI")
#: Legacy v2 chunk header: start_cycle, n_records, payload bytes, raw
#: bytes, carry flags, oir_flag, oir_kind, oir_addr, last_committed.
_CHUNK_HDR = struct.Struct("<QIIIBBBQQ")
#: v3 pads the file header by 2 bytes, so the first chunk header lands
#: on an 8-byte boundary (16 bytes with the magic).
_FILE_PAD_V3 = b"\x00\x00"
#: v3 chunk header (96 bytes, 8-aligned): start_cycle, n_records,
#: payload bytes (stored size), raw bytes (column-buffer size), carry
#: flags, oir_flag, oir_kind, pad, oir_addr, last_committed, then the
#: flattened column lengths (n_opt, n_commit, n_disp) and the 10
#: per-column byte offsets within the payload (see ``_COL_*``).
_CHUNK_HDR_V3 = struct.Struct("<QIIIBBBBQQ3I10I4x")

#: v3 column order inside a chunk payload.  u64 columns first, then
#: the u32 prefix-sum bases, then the byte columns; every column start
#: is padded to an 8-byte boundary.
(_COL_FETCH_PC, _COL_OPT_VALS, _COL_COMMIT_ADDR, _COL_DISP_ADDR,
 _COL_OPT_BASE, _COL_COMMIT_BASE, _COL_DISP_BASE, _COL_FLAGS,
 _COL_OLDEST, _COL_COMMIT_META) = range(10)

#: File-header flags.
_FILE_F_ZLIB = 1 << 0

#: Carry flags.
_C_HAS_OIR = 1 << 0
_C_HAS_LAST = 1 << 1
_C_DRAIN = 1 << 2

#: OIR flag values carried per chunk (mirror the profilers' OIR flags).
OIR_NONE = 0
OIR_MISPREDICT = 1
OIR_FLUSH = 2
OIR_EXCEPTION = 3

#: OIR flush-kind codes (0 = none); map to
#: :class:`repro.core.samples.FlushKind` on the profiler side.
KIND_NONE = 0
KIND_MISPREDICT = 1
KIND_CSR = 2
KIND_EXCEPTION = 3
KIND_ORDERING = 4


@dataclass
class ChunkCarry:
    """Machine state carried into a chunk boundary.

    It is the state a profiler would need to start consuming records
    at the chunk's first cycle as if it had replayed the whole prefix.
    Part of the v3 format; replay reads chunks from the first one and
    never restores it.
    """

    #: OIR mirror: youngest committing/excepting instruction address.
    oir_addr: Optional[int] = None
    #: OIR flag (``OIR_*``).
    oir_flag: int = OIR_NONE
    #: OIR flush kind (``KIND_*``).
    oir_kind: int = KIND_NONE
    #: Address of the last committed instruction (LCI state).
    last_committed: Optional[int] = None
    #: The record before the boundary flushed or excepted (the next
    #: cycle must commit nothing -- sanitizer invariant S005/S006).
    drain_pending: bool = False


def _carry_after(carry: ChunkCarry, block: Any) -> ChunkCarry:
    """The carry past the last record of *block*, entered with *carry*.

    Read off the block's columns: the youngest commit of the last
    committing record, or the exception of a later (or the same)
    excepting record, sets the OIR mirror; the last record alone sets
    the drain flag.
    """
    n = block.n
    commit_base = block.commit_base
    commits = commit_base[n]
    flags = block.flags
    after = ChunkCarry(carry.oir_addr, carry.oir_flag, carry.oir_kind,
                       carry.last_committed)
    last = -1  # the last committing record
    if commits:
        after.last_committed = block.commit_addr[commits - 1]
        last = bisect_left(commit_base, commits) - 1
    excepting = block.exc_mask.rfind(1)
    if excepting >= last and excepting >= 0:
        after.oir_addr = block.exception_at(excepting)
        after.oir_flag = OIR_EXCEPTION
        after.oir_kind = (KIND_ORDERING if flags[excepting] & _F_ORD
                          else KIND_EXCEPTION)
    elif last >= 0:
        meta = block.commit_meta[commits - 1]
        after.oir_addr = after.last_committed
        if meta & _M_MISPREDICT:
            after.oir_flag, after.oir_kind = OIR_MISPREDICT, KIND_MISPREDICT
        elif meta & _M_FLUSHES:
            after.oir_flag, after.oir_kind = OIR_FLUSH, KIND_CSR
        else:
            after.oir_flag, after.oir_kind = OIR_NONE, KIND_NONE
    after.drain_pending = bool(flags[n - 1] & _F_EXC) or any(
        block.commit_meta[k] & _M_FLUSHES
        for k in range(commit_base[n - 1], commits))
    return after


@dataclass
class ChunkInfo:
    """Location and metadata of one v3 chunk."""

    start_cycle: int
    n_records: int
    #: File offset of the chunk payload (past the chunk header).
    offset: int
    payload_bytes: int
    raw_bytes: int
    carry: ChunkCarry
    #: Flattened column lengths ``(n_opt, n_commit, n_disp)``.
    counts: Tuple[int, int, int]
    #: Per-column byte offsets within the raw payload, in ``_COL_*``
    #: order.
    columns: Tuple[int, ...]


@dataclass
class TraceIndex:
    """File-level metadata and the chunk directory of a v3 trace."""

    banks: int
    compressed: bool
    chunk_cycles: int
    chunks: List[ChunkInfo]

    @property
    def total_records(self) -> int:
        return sum(chunk.n_records for chunk in self.chunks)


# -- legacy v1/v2 decoding (read-only) ----------------------------------------


def _decode_record(buf: bytes, pos: int,
                   cycle: int) -> Tuple[CycleRecord, int]:
    """Decode one record from *buf* at *pos*; returns (record, new pos)."""
    end = pos + _HDR.size
    if end > len(buf):
        raise ValueError("truncated trace record header")
    flags, counts, oldest_bank = _HDR.unpack_from(buf, pos)
    pos = end

    def u64() -> int:
        nonlocal pos
        if pos + 8 > len(buf):
            raise ValueError("truncated trace record")
        value = _U64.unpack_from(buf, pos)[0]
        pos += 8
        return value

    fetch_pc = u64()
    rob_head = u64() if flags & _F_HEAD else None
    exception = u64() if flags & _F_EXC else None
    dispatch_pc = u64() if flags & _F_DISP_PC else None
    committed = []
    for _ in range(counts & 0xF):
        addr = u64()
        if pos >= len(buf):
            raise ValueError("truncated trace record")
        meta = buf[pos]
        pos += 1
        committed.append(CommittedInst(
            addr, meta & 0x3F, bool(meta & _M_MISPREDICT),
            bool(meta & _M_FLUSHES)))
    dispatched = tuple(u64() for _ in range(counts >> 4))
    record = CycleRecord(
        cycle=cycle, committed=tuple(committed), rob_head=rob_head,
        rob_empty=bool(flags & _F_EMPTY), exception=exception,
        exception_is_ordering=bool(flags & _F_ORD),
        dispatched=dispatched, dispatch_pc=dispatch_pc,
        fetch_pc=fetch_pc, oldest_bank=oldest_bank)
    return record, pos


def _read_trace_v1(stream: BinaryIO) -> Iterator[CycleRecord]:
    buf = stream.read()
    pos = cycle = 0
    while pos < len(buf):
        record, pos = _decode_record(buf, pos, cycle)
        yield record
        cycle += 1


def _read_trace_v2(stream: BinaryIO, compressed: bool
                   ) -> Iterator[CycleRecord]:
    while True:
        header = stream.read(_CHUNK_HDR.size)
        if not header:
            return
        if len(header) < _CHUNK_HDR.size:
            raise ValueError("truncated chunk header")
        start_cycle, n_records, payload_bytes, raw_bytes = \
            _CHUNK_HDR.unpack(header)[:4]
        payload = stream.read(payload_bytes)
        if len(payload) < payload_bytes:
            raise ValueError("truncated chunk payload")
        raw = _inflate(payload) if compressed else payload
        if len(raw) != raw_bytes:
            raise ValueError("chunk payload size mismatch")
        pos = 0
        for i in range(n_records):
            record, pos = _decode_record(raw, pos, start_cycle + i)
            yield record
        if pos != len(raw):
            raise ValueError("trailing bytes in trace chunk")


def _inflate(payload: bytes) -> bytes:
    """Decompress a zlib chunk payload; corrupt data is a ValueError."""
    try:
        return zlib.decompress(payload)
    except zlib.error as exc:
        raise ValueError(f"corrupt compressed chunk: {exc}") from None


def _fsync_dir(dirname: str) -> None:
    """Fsync a directory so a rename into it survives a crash."""
    try:
        fd = os.open(dirname or ".", os.O_RDONLY)
    except OSError:
        return  # e.g. platforms without directory fds
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# -- format v3 ----------------------------------------------------------------


def _pack_u64(values: Sequence[int]) -> bytes:
    """Pack a sequence of u64s little-endian (column wire form)."""
    arr = array("Q", values)
    if not _LITTLE:
        arr.byteswap()
    if arr.itemsize != 8:  # pragma: no cover - exotic platforms
        return struct.pack("<%dQ" % len(values), *values)
    return arr.tobytes()


def _pack_u32(values: Sequence[int]) -> bytes:
    """Pack a sequence of u32s little-endian (prefix-base wire form)."""
    if isinstance(values, array) and values.typecode == "I" and _LITTLE \
            and values.itemsize == 4:
        return values.tobytes()
    arr = array("I", values)
    if not _LITTLE:
        arr.byteswap()
    if arr.itemsize != 4:  # pragma: no cover - exotic platforms
        return struct.pack("<%dI" % len(values), *values)
    return arr.tobytes()


def _cast_u64(view: memoryview, offset: int, count: int) -> Sequence[int]:
    """A u64 column as a zero-copy cast (byteswap copy on big-endian)."""
    sub = view[offset:offset + 8 * count]
    if len(sub) != 8 * count:
        raise ValueError("v3 column out of bounds")
    if _LITTLE:
        return sub.cast("Q")
    arr = array("Q")  # pragma: no cover - big-endian fallback
    arr.frombytes(sub.tobytes())
    arr.byteswap()
    return arr


def _cast_u32(view: memoryview, offset: int, count: int) -> Sequence[int]:
    """A u32 column as a zero-copy cast (byteswap copy on big-endian)."""
    sub = view[offset:offset + 4 * count]
    if len(sub) != 4 * count:
        raise ValueError("v3 column out of bounds")
    if _LITTLE:
        return sub.cast("I")
    arr = array("I")  # pragma: no cover - big-endian fallback
    arr.frombytes(sub.tobytes())
    arr.byteswap()
    return arr


def _serialize_block_columns(block: Any
                             ) -> Tuple[bytes, Tuple[int, ...],
                                        Tuple[int, int, int]]:
    """Serialize a :class:`CycleBlock`'s columns into one v3 payload.

    Returns ``(payload, column_offsets, (n_opt, n_commit, n_disp))``;
    every column start (and the total size) is padded to an 8-byte
    boundary so the payload can be decoded by pointer casts when the
    file offset itself is 8-aligned (which the v3 framing guarantees).
    """
    parts: List[bytes] = []
    offsets: List[int] = []
    pos = 0

    def add(data: bytes) -> None:
        nonlocal pos
        pad = -pos % 8
        if pad:
            parts.append(b"\x00" * pad)
            pos += pad
        offsets.append(pos)
        parts.append(data)
        pos += len(data)

    add(_pack_u64(block.fetch_pc))
    add(_pack_u64(block.opt_vals))
    add(_pack_u64(block.commit_addr))
    add(_pack_u64(block.disp_addr))
    add(_pack_u32(block.opt_base))
    add(_pack_u32(block.commit_base))
    add(_pack_u32(block.disp_base))
    add(bytes(block.flags))
    add(bytes(block.oldest_bank))
    add(bytes(block.commit_meta))
    pad = -pos % 8
    if pad:
        parts.append(b"\x00" * pad)
    return (b"".join(parts), tuple(offsets),
            (len(block.opt_vals), len(block.commit_addr),
             len(block.disp_addr)))


def _block_from_columns(view: memoryview, start_cycle: int,
                        n_records: int, banks: int,
                        counts: Tuple[int, int, int],
                        columns: Tuple[int, ...]) -> Any:
    """Build a :class:`CycleBlock` over a v3 column buffer, zero-copy."""
    n_opt, n_commit, n_disp = counts
    n = n_records
    total = len(view)
    for off in columns:
        if off > total:
            raise ValueError("v3 column out of bounds")
    flags = view[columns[_COL_FLAGS]:columns[_COL_FLAGS] + n]
    oldest = view[columns[_COL_OLDEST]:columns[_COL_OLDEST] + n]
    meta = view[columns[_COL_COMMIT_META]:
                columns[_COL_COMMIT_META] + n_commit]
    if len(flags) != n or len(oldest) != n or len(meta) != n_commit:
        raise ValueError("v3 column out of bounds")
    return CycleBlock(
        start_cycle, n, banks, flags, oldest,
        _cast_u64(view, columns[_COL_FETCH_PC], n),
        _cast_u64(view, columns[_COL_OPT_VALS], n_opt),
        _cast_u32(view, columns[_COL_OPT_BASE], n + 1),
        _cast_u32(view, columns[_COL_COMMIT_BASE], n + 1),
        _cast_u64(view, columns[_COL_COMMIT_ADDR], n_commit), meta,
        _cast_u32(view, columns[_COL_DISP_BASE], n + 1),
        _cast_u64(view, columns[_COL_DISP_ADDR], n_disp))


class TraceWriterV3(TraceObserver):
    """Observer that serializes the trace in the columnar v3 format.

    Its one input is :meth:`on_block`: it buffers record ranges of the
    blocks it is handed (a live run's, a replayed chunk, legacy records
    columnarized by :func:`convert_trace`) and flushes chunks of
    *chunk_cycles* records whose payload **is** the chunk's
    :class:`~repro.fastpath.block.CycleBlock` columns,
    8-byte aligned behind a per-column offset table, so readers decode
    by casting an ``mmap`` of the file instead of looping over records.
    A block that crosses a chunk boundary is sliced there.  Each chunk
    header stores the cycle range and the machine state carried into
    the chunk (:class:`ChunkCarry`), computed once per chunk, at flush,
    from the previous chunk's columns.

    *stream* may be an open binary stream or a filesystem path.  In
    path mode the writer is **atomic**: it writes to a unique ``*.tmp``
    sibling and only fsyncs + renames it over the destination in
    :meth:`on_finish`.  A killed ``repro record`` or cache fill
    therefore never leaves a truncated trace at the destination path --
    which readers would otherwise silently accept, because truncation
    at a chunk boundary is indistinguishable from end-of-trace.  Call
    :meth:`abort` to discard a partial path-mode write explicitly.
    """

    def __init__(self, stream: Union[BinaryIO, str, "os.PathLike[str]"],
                 banks: int = 4,
                 chunk_cycles: int = DEFAULT_CHUNK_CYCLES,
                 compress: bool = False):
        if chunk_cycles < 1:
            raise ValueError("chunk_cycles must be >= 1")
        self._path: Optional[str] = None
        self._tmp_path: Optional[str] = None
        self._closed = False
        if isinstance(stream, (str, os.PathLike)):
            self._path = os.fspath(stream)
            self._tmp_path = f"{self._path}.{os.getpid()}.tmp"
            stream = open(self._tmp_path, "wb")
        self.stream: BinaryIO = stream
        self.banks = banks
        self.chunk_cycles = chunk_cycles
        self.compress = compress
        self.records_written = 0
        self.chunks_written = 0
        #: ``(block, lo, hi)`` record ranges of the buffered chunk.
        self._parts: List[Tuple[CycleBlock, int, int]] = []
        self._buffered = 0
        self._chunk_start = 0
        #: Carry as of the start of the buffered chunk.
        self._chunk_carry = ChunkCarry()
        self.stream.write(MAGIC_V3)
        self.stream.write(_FILE_HDR_V2.pack(
            banks, _FILE_F_ZLIB if compress else 0, chunk_cycles))
        self.stream.write(_FILE_PAD_V3)

    def on_block(self, block: CycleBlock) -> None:
        # The serialized columns carry no cycle numbers (the chunk
        # header provides the start cycle), so a block is buffered as
        # record ranges, cut wherever a chunk fills.
        n = block.n
        self.records_written += n
        lo = 0
        while lo < n:
            hi = min(n, lo + self.chunk_cycles - self._buffered)
            self._parts.append((block, lo, hi))
            self._buffered += hi - lo
            lo = hi
            if self._buffered >= self.chunk_cycles:
                self._flush_chunk()

    def on_finish(self, final_cycle: int) -> None:
        if self._buffered:
            self._flush_chunk()
        self.stream.flush()
        if self._path is not None and not self._closed:
            self._closed = True
            os.fsync(self.stream.fileno())
            self.stream.close()
            os.replace(self._tmp_path, self._path)
            _fsync_dir(os.path.dirname(self._path))

    def abort(self) -> None:
        """Discard a partially-written path-mode trace.

        Closes and unlinks the temporary file; the destination path is
        never touched.  No-op in stream mode or after finishing.
        """
        if self._path is None or self._closed:
            return
        self._closed = True
        try:
            self.stream.close()
        finally:
            try:
                os.unlink(self._tmp_path)
            except OSError:
                pass

    def _flush_chunk(self) -> None:
        block = CycleBlock.concat(self._parts)
        raw, offsets, (n_opt, n_commit, n_disp) = \
            _serialize_block_columns(block)
        payload = zlib.compress(raw) if self.compress else raw
        carry = self._chunk_carry
        flags = 0
        if carry.oir_addr is not None:
            flags |= _C_HAS_OIR
        if carry.last_committed is not None:
            flags |= _C_HAS_LAST
        if carry.drain_pending:
            flags |= _C_DRAIN
        self.stream.write(_CHUNK_HDR_V3.pack(
            self._chunk_start, self._buffered, len(payload), len(raw),
            flags, carry.oir_flag, carry.oir_kind, 0,
            carry.oir_addr or 0, carry.last_committed or 0,
            n_opt, n_commit, n_disp, *offsets))
        self.stream.write(payload)
        pad = -len(payload) % 8
        if pad:
            # Keep the next chunk header 8-aligned even when zlib
            # produced an odd-sized payload.
            self.stream.write(b"\x00" * pad)
        self._chunk_start += self._buffered
        self._parts = []
        self._buffered = 0
        self._chunk_carry = _carry_after(carry, block)
        self.chunks_written += 1


def _read_legacy(stream: BinaryIO, magic: bytes
                 ) -> Tuple[int, Iterator[CycleRecord]]:
    """``(banks, records)`` of a v1/v2 trace whose *magic* was read."""
    if magic == MAGIC:
        banks = stream.read(1)
        if not banks:
            raise ValueError("truncated v1 trace header")
        return banks[0], _read_trace_v1(stream)
    if magic != MAGIC_V2:
        raise ValueError("not a TIP trace stream")
    header = stream.read(_FILE_HDR_V2.size)
    if len(header) < _FILE_HDR_V2.size:
        raise ValueError("truncated v2 trace header")
    banks, flags, _chunk_cycles = _FILE_HDR_V2.unpack(header)
    return banks, _read_trace_v2(stream, bool(flags & _FILE_F_ZLIB))


def _unpack_chunk_header_v3(buf, pos: int = 0
                            ) -> Tuple[int, int, int, int, ChunkCarry,
                                       Tuple[int, int, int],
                                       Tuple[int, ...]]:
    fields = _CHUNK_HDR_V3.unpack_from(buf, pos)
    (start_cycle, n_records, payload_bytes, raw_bytes, flags,
     oir_flag, oir_kind, _pad, oir_addr, last_committed) = fields[:10]
    counts = fields[10:13]
    columns = fields[13:23]
    carry = ChunkCarry(
        oir_addr=oir_addr if flags & _C_HAS_OIR else None,
        oir_flag=oir_flag, oir_kind=oir_kind,
        last_committed=last_committed if flags & _C_HAS_LAST else None,
        drain_pending=bool(flags & _C_DRAIN))
    return (start_cycle, n_records, payload_bytes, raw_bytes, carry,
            counts, columns)


# -- readers ------------------------------------------------------------------


def _open_source(source: Union[BinaryIO, bytes, str]
                 ) -> Tuple[BinaryIO, bool]:
    """Returns (stream, owns) for bytes / path / stream sources."""
    if isinstance(source, (bytes, bytearray)):
        return io.BytesIO(source), True
    if isinstance(source, str):
        return open(source, "rb"), True
    return source, False


@contextmanager
def _trace_blocks(source: Union[BinaryIO, bytes, str], chunk_cycles: int
                  ) -> Iterator[Tuple[int, Iterator[CycleBlock]]]:
    """``(banks, blocks)`` of a serialized trace of any version.

    A v3 trace yields its stored chunks through :class:`TraceReaderV3`,
    which maps a path source instead of reading it; the records of a
    legacy v1/v2 trace are columnarized *chunk_cycles* at a time.
    Whatever was opened is closed on exit.
    """
    stream, owns = _open_source(source)
    try:
        magic = stream.read(len(MAGIC_V3))
        if magic != MAGIC_V3:
            banks, records = _read_legacy(stream, magic)

            def blocks() -> Iterator[CycleBlock]:
                while True:
                    runs = [(record, 1)
                            for record in islice(records, chunk_cycles)]
                    if not runs:
                        return
                    yield CycleBlock.from_runs(runs, banks)
            yield banks, blocks()
            return
        with TraceReaderV3(source if owns
                           else magic + stream.read()) as reader:
            yield reader.banks, map(reader.chunk_block,
                                    reader.index.chunks)
    finally:
        if owns:
            stream.close()


def read_trace(stream: BinaryIO) -> Iterator[CycleRecord]:
    """Iterate over the records of a serialized trace (v1, v2 or v3)."""
    with _trace_blocks(stream, DEFAULT_CHUNK_CYCLES) as (_banks, blocks):
        for block in blocks:
            yield from block.records()


def _scan_index_buffer(buf: memoryview) -> TraceIndex:
    """Scan an in-memory v3 trace buffer for its chunk directory.

    Raises :class:`ValueError` for anything but v3; legacy v1/v2 traces
    get a message that names the upgrade path.
    """
    magic = bytes(buf[:len(MAGIC_V3)])
    if magic in (MAGIC, MAGIC_V2):
        version = 1 if magic == MAGIC else 2
        raise ValueError(
            f"trace is legacy format v{version}; upgrade it to v3 with "
            f"`repro convert-trace`")
    if magic != MAGIC_V3:
        raise ValueError("not a TIP trace stream")
    pos = len(MAGIC_V3) + _FILE_HDR_V2.size + len(_FILE_PAD_V3)
    total = len(buf)
    if pos > total:
        raise ValueError("truncated v3 trace header")
    banks, flags, chunk_cycles = _FILE_HDR_V2.unpack_from(buf,
                                                          len(MAGIC_V3))
    compressed = bool(flags & _FILE_F_ZLIB)
    chunks: List[ChunkInfo] = []
    while pos < total:
        if pos + _CHUNK_HDR_V3.size > total:
            raise ValueError("truncated chunk header")
        (start_cycle, n_records, payload_bytes, raw_bytes, carry,
         counts, columns) = _unpack_chunk_header_v3(buf, pos)
        offset = pos + _CHUNK_HDR_V3.size
        if offset + payload_bytes > total:
            raise ValueError("truncated chunk payload")
        chunks.append(ChunkInfo(start_cycle, n_records, offset,
                                payload_bytes, raw_bytes, carry,
                                counts, columns))
        pos = offset + payload_bytes + (-payload_bytes % 8)
    return TraceIndex(banks, compressed, chunk_cycles, chunks)


def read_index(source: Union[BinaryIO, bytes, str]) -> TraceIndex:
    """Scan a v3 trace and return its chunk directory."""
    with TraceReaderV3(source) as reader:
        return reader.index


class TraceReaderV3:
    """Zero-copy random-access reader over a columnar v3 trace.

    Path sources are ``mmap``-ed read-only: decoding a chunk is then a
    set of ``memoryview`` casts straight over the mapping -- the OS
    page cache is the only copy, and processes that open the same path
    share those pages.  ``bytes`` sources are viewed in
    place; stream sources are read into one buffer.  zlib-compressed
    traces fall back to one decompress-copy per chunk.  Raises
    :class:`ValueError` for legacy v1/v2 traces (upgrade them with
    :func:`convert_trace`).

    Usable as a context manager::

        with TraceReaderV3(path) as reader:
            for chunk in reader.index.chunks:
                block = reader.chunk_block(chunk)
    """

    def __init__(self, source: Union[BinaryIO, bytes, str]):
        self._file: Optional[BinaryIO] = None
        self._mmap: Optional[mmap.mmap] = None
        self._closed = False
        if isinstance(source, str):
            self._file = open(source, "rb")
            try:
                self._mmap = mmap.mmap(self._file.fileno(), 0,
                                       access=mmap.ACCESS_READ)
                buffer: Union[mmap.mmap, bytes] = self._mmap
            except (ValueError, OSError):
                # Empty or unmappable file: fall back to a read copy.
                self._file.seek(0)
                buffer = self._file.read()
        elif isinstance(source, (bytes, bytearray)):
            buffer = bytes(source)
        else:
            if source.seekable():
                source.seek(0)
            buffer = source.read()
        self._view = memoryview(buffer)
        try:
            self.index = _scan_index_buffer(self._view)
        except Exception:
            self.close()
            raise

    @property
    def banks(self) -> int:
        return self.index.banks

    def chunk_raw(self, chunk: ChunkInfo) -> memoryview:
        """The chunk's raw column buffer (zero-copy when uncompressed)."""
        data = self._view[chunk.offset:chunk.offset + chunk.payload_bytes]
        if len(data) != chunk.payload_bytes:
            raise ValueError("truncated chunk payload")
        if self.index.compressed:
            raw = _inflate(data)
            if len(raw) != chunk.raw_bytes:
                raise ValueError("chunk payload size mismatch")
            return memoryview(raw)
        if chunk.payload_bytes != chunk.raw_bytes:
            raise ValueError("chunk payload size mismatch")
        return data

    def chunk_block(self, chunk: ChunkInfo) -> Any:
        """The chunk as a columnar ``CycleBlock`` over the mapping."""
        return _block_from_columns(self.chunk_raw(chunk),
                                   chunk.start_cycle, chunk.n_records,
                                   self.index.banks, chunk.counts,
                                   chunk.columns)

    def records(self) -> Iterator[CycleRecord]:
        """Iterate over every record of the trace in cycle order."""
        for chunk in self.index.chunks:
            yield from self.chunk_block(chunk).records()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._view.release()
        except BufferError:  # pragma: no cover - defensive
            pass
        if self._mmap is not None:
            try:
                self._mmap.close()
            except BufferError:
                # Live block views still reference the mapping; it is
                # unmapped when they are dropped.  The fd below closes
                # regardless (the mapping survives fd close).
                pass
        if self._file is not None:
            self._file.close()

    def __enter__(self) -> "TraceReaderV3":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def open_reader(source: Union[BinaryIO, bytes, str]) -> TraceReaderV3:
    """Open a random-access chunk reader over a v3 trace.

    Raises :class:`ValueError` for legacy v1/v2 traces, naming
    ``repro convert-trace``, and for anything that is not a trace.
    """
    return TraceReaderV3(source)


def replay_trace(source: Union[BinaryIO, bytes, str],
                 *observers: TraceObserver) -> int:
    """Replay a serialized trace through *observers* one record at a
    time; returns cycles (0 for a trace without records)."""
    cycles = 0
    with _trace_blocks(source, DEFAULT_CHUNK_CYCLES) as (_banks, blocks):
        for block in blocks:
            for record in block.records():
                for observer in observers:
                    observer.on_cycle(record)
            cycles = block.start_cycle + block.n
    for observer in observers:
        observer.on_finish(max(cycles - 1, 0))
    return cycles


def convert_trace(source: Union[BinaryIO, bytes, str],
                  dest: Union[BinaryIO, str],
                  chunk_cycles: int = DEFAULT_CHUNK_CYCLES,
                  compress: bool = False) -> int:
    """Re-encode a trace of any version (v1, v2 or v3) as v3.

    Every record is preserved losslessly: a v3 source reaches the
    writer chunk by chunk as stored, a legacy one as blocks of
    *chunk_cycles* decoded records.  Records are dense from cycle 0,
    which pins the chunking, and the carry state is recomputed
    deterministically, so equal records and chunk parameters give
    byte-identical output whatever the source version.  A path *dest*
    is written atomically: when the source is not a trace or is cut
    short, the :class:`ValueError` propagates and the destination is
    left as it was.  Returns the number of records converted.
    """
    with _trace_blocks(source, chunk_cycles) as (banks, blocks):
        writer = TraceWriterV3(dest, banks=banks,
                               chunk_cycles=chunk_cycles,
                               compress=compress)
        try:
            for block in blocks:
                writer.on_block(block)
            writer.on_finish(max(writer.records_written - 1, 0))
        except BaseException:
            writer.abort()
            raise
    return writer.records_written
