"""Trace serialization tests: record once, analyze many times."""

import io
import os
import struct
import tempfile
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from conftest import feed_records
from repro.core.oracle import OracleProfiler
from repro.core.sampling import SampleSchedule
from repro.core.tip import TipProfiler
from repro.cpu.machine import Machine
from repro.cpu.trace import TraceCollector
from repro.cpu.tracefile import (
    KIND_CSR, KIND_EXCEPTION, KIND_MISPREDICT, KIND_NONE, KIND_ORDERING,
    MAGIC, MAGIC_V2, OIR_EXCEPTION, OIR_FLUSH, OIR_MISPREDICT, OIR_NONE,
    ChunkCarry, TraceReaderV3, TraceWriterV3, convert_trace, open_reader,
    read_index, read_trace, replay_trace)
from repro.isa import assemble

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

SRC = """
.data 0x2000 1
.func main
    addi x1, x0, 0
    addi x2, x0, 120
loop:
    lw   x3, 0x2000(x1)
    andi x1, x1, 255
    frflags x5
    addi x1, x1, 8
    addi x2, x2, -1
    bne  x2, x0, loop
    lw   x9, 0x100000(x0)
    halt
"""


def _fixture(name):
    with open(os.path.join(DATA, name), "rb") as handle:
        return handle.read()


@pytest.fixture(scope="module")
def recorded():
    program = assemble(SRC)
    machine = Machine(program, premapped_data=[(0x2000, 0x2200)])
    buffer = io.BytesIO()
    writer = TraceWriterV3(buffer, banks=4)
    collector = TraceCollector()
    machine.attach(writer)
    machine.attach(collector)
    machine.run()
    return buffer.getvalue(), collector, machine


def test_round_trip_every_field(recorded):
    data, collector, _ = recorded
    decoded = list(read_trace(io.BytesIO(data)))
    assert len(decoded) == len(collector.records)
    for original, copy in zip(collector.records, decoded):
        assert copy.cycle == original.cycle
        assert copy.rob_empty == original.rob_empty
        assert copy.rob_head == original.rob_head
        assert copy.exception == original.exception
        assert copy.exception_is_ordering == original.exception_is_ordering
        assert copy.dispatch_pc == original.dispatch_pc
        assert copy.fetch_pc == original.fetch_pc
        assert copy.oldest_bank == original.oldest_bank
        assert tuple(copy.dispatched) == tuple(original.dispatched)
        assert len(copy.committed) == len(original.committed)
        for a, b in zip(original.committed, copy.committed):
            assert (a.addr, a.bank, a.mispredicted, a.flushes) == \
                (b.addr, b.bank, b.mispredicted, b.flushes)


def test_replay_reproduces_oracle_exactly(recorded):
    data, _, machine = recorded
    # Replay from the binary stream and compare against a live pass.
    replayed_oracle = OracleProfiler(machine.image)
    replay_trace(data, replayed_oracle)
    collector_oracle = OracleProfiler(machine.image)
    # Fresh simulation for the live reference.
    rerun = Machine(assemble(SRC), premapped_data=[(0x2000, 0x2200)])
    rerun.attach(collector_oracle)
    rerun.run()
    assert replayed_oracle.report.profile == collector_oracle.report.profile
    assert replayed_oracle.report.category_totals == \
        collector_oracle.report.category_totals


def test_replay_drives_profilers(recorded):
    data, _, machine = recorded
    tip = TipProfiler(SampleSchedule(7), machine.image)
    cycles = replay_trace(data, tip)
    assert cycles > 0
    assert tip.samples
    assert tip.profile()


def test_replay_from_file(tmp_path, recorded):
    data, _, machine = recorded
    path = tmp_path / "run.tiptrace"
    path.write_bytes(data)
    tip = TipProfiler(SampleSchedule(11), machine.image)
    replay_trace(str(path), tip)
    assert tip.samples


def test_bad_magic_rejected():
    with pytest.raises(ValueError, match="not a TIP trace"):
        list(read_trace(io.BytesIO(b"BOGUS123" + b"\x04")))


def test_truncated_stream_rejected(recorded):
    """A trace cut mid-record is an error in every readable format."""
    data, _, _ = recorded
    for trace in (data, _fixture("golden_v1.tiptrace"),
                  _fixture("golden_v2.tiptrace")):
        with pytest.raises(ValueError):
            list(read_trace(io.BytesIO(trace[:len(trace) // 2 + 1])))


def test_compactness(recorded):
    """The binary trace is far smaller than the in-memory records."""
    data, collector, _ = recorded
    per_cycle = len(data) / len(collector.records)
    assert per_cycle < 64  # bytes/cycle, vs ~56 B the paper assumes


# -- legacy v1/v2 input -------------------------------------------------------
#
# Nothing in the package writes v1 or v2 any more; read_trace and
# convert_trace still read them.  This encoder produces them from
# records so the property tests can feed random legacy traces in.
# test_legacy_encoder_matches_frozen_fixtures pins it to the frozen
# golden files the old writers produced.


def _encode_legacy_record(record) -> bytes:
    flags = ((1 if record.rob_empty else 0)
             | (2 if record.exception is not None else 0)
             | (4 if record.exception_is_ordering else 0)
             | (8 if record.dispatch_pc is not None else 0)
             | (16 if record.rob_head is not None else 0))
    counts = len(record.committed) | len(record.dispatched) << 4
    parts = [struct.pack("<BBBQ", flags, counts, record.oldest_bank,
                         record.fetch_pc)]
    for value in (record.rob_head, record.exception, record.dispatch_pc):
        if value is not None:
            parts.append(struct.pack("<Q", value))
    for c in record.committed:
        parts.append(struct.pack(
            "<QB", c.addr, c.bank | c.mispredicted << 6 | c.flushes << 7))
    for addr in record.dispatched:
        parts.append(struct.pack("<Q", addr))
    return b"".join(parts)


def _advance_carry(carry: ChunkCarry, record) -> None:
    """Per-record reference for a chunk header's carried state: the
    carry past *record* (the writer derives it per chunk, from the
    chunk's columns)."""
    if record.committed:
        youngest = record.committed[-1]
        carry.last_committed = carry.oir_addr = youngest.addr
        if youngest.mispredicted:
            carry.oir_flag, carry.oir_kind = OIR_MISPREDICT, KIND_MISPREDICT
        elif youngest.flushes:
            carry.oir_flag, carry.oir_kind = OIR_FLUSH, KIND_CSR
        else:
            carry.oir_flag, carry.oir_kind = OIR_NONE, KIND_NONE
    if record.exception is not None:
        carry.oir_addr = record.exception
        carry.oir_flag = OIR_EXCEPTION
        carry.oir_kind = (KIND_ORDERING if record.exception_is_ordering
                          else KIND_EXCEPTION)
    carry.drain_pending = (record.exception is not None
                           or any(c.flushes for c in record.committed))


def _legacy_trace(records, version, chunk_cycles=8, compress=False,
                  banks=4) -> bytes:
    """*records* serialized in legacy format v1 or v2."""
    encoded = [_encode_legacy_record(r) for r in records]
    if version == 1:
        return MAGIC + bytes([banks]) + b"".join(encoded)
    parts = [MAGIC_V2, struct.pack("<BBI", banks, int(compress),
                                   chunk_cycles)]
    carry = ChunkCarry()
    for start in range(0, len(records), chunk_cycles):
        chunk = records[start:start + chunk_cycles]
        raw = b"".join(encoded[start:start + chunk_cycles])
        payload = zlib.compress(raw) if compress else raw
        parts.append(struct.pack(
            "<QIIIBBBQQ", start, len(chunk), len(payload), len(raw),
            (carry.oir_addr is not None)
            | (carry.last_committed is not None) << 1
            | carry.drain_pending << 2,
            carry.oir_flag, carry.oir_kind, carry.oir_addr or 0,
            carry.last_committed or 0))
        parts.append(payload)
        for record in chunk:
            _advance_carry(carry, record)
    return b"".join(parts)


def test_legacy_encoder_matches_frozen_fixtures():
    records = list(read_trace(io.BytesIO(_fixture("golden.tiptrace"))))
    assert _legacy_trace(records, 1) == _fixture("golden_v1.tiptrace")
    assert _legacy_trace(records, 2, chunk_cycles=256) == \
        _fixture("golden_v2.tiptrace")


# -- property-based round trips -----------------------------------------------


@st.composite
def _random_records(draw):
    from conftest import make_record
    length = draw(st.integers(1, 30))
    records = []
    for cycle in range(length):
        n_commits = draw(st.integers(0, 4))
        committed = [(draw(st.integers(0, 1 << 48)) & ~3,
                      draw(st.booleans()), draw(st.booleans()))
                     for _ in range(n_commits)]
        rob_head = (draw(st.integers(0, 1 << 48)) & ~3
                    if draw(st.booleans()) else None)
        exception = (draw(st.integers(0, 1 << 48)) & ~3
                     if rob_head is None and not committed
                     and draw(st.booleans()) else None)
        dispatched = [draw(st.integers(0, 1 << 48)) & ~3
                      for _ in range(draw(st.integers(0, 4)))]
        records.append(make_record(
            cycle, committed=committed, rob_head=rob_head,
            exception=exception,
            exception_is_ordering=draw(st.booleans()),
            dispatched=dispatched,
            dispatch_pc=(draw(st.integers(0, 1 << 48)) & ~3
                         if draw(st.booleans()) else None),
            fetch_pc=draw(st.integers(0, 1 << 48)) & ~3,
            banks=4))
    return records


def _records_equal(a, b):
    assert a.cycle == b.cycle
    assert a.rob_empty == b.rob_empty
    assert a.rob_head == b.rob_head
    assert a.exception == b.exception
    assert a.exception_is_ordering == b.exception_is_ordering
    assert a.dispatch_pc == b.dispatch_pc
    assert a.fetch_pc == b.fetch_pc
    assert a.oldest_bank == b.oldest_bank
    assert tuple(a.dispatched) == tuple(b.dispatched)
    assert [(c.addr, c.bank, c.mispredicted, c.flushes)
            for c in a.committed] == \
        [(c.addr, c.bank, c.mispredicted, c.flushes)
         for c in b.committed]


def _write_v3(records, chunk_cycles, compress=False):
    buffer = io.BytesIO()
    writer = TraceWriterV3(buffer, banks=4, chunk_cycles=chunk_cycles,
                           compress=compress)
    feed_records(writer, records, 4)
    writer.on_finish(records[-1].cycle if records else 0)
    return buffer.getvalue()


@given(records=_random_records())
@settings(max_examples=40, deadline=None)
def test_property_round_trip(records):
    decoded = list(read_trace(io.BytesIO(_write_v3(records, 4096))))
    assert len(decoded) == len(records)
    for original, copy in zip(records, decoded):
        assert copy.fetch_pc == original.fetch_pc
        assert copy.rob_head == original.rob_head
        assert copy.exception == original.exception
        assert tuple(copy.dispatched) == tuple(original.dispatched)
        assert [c.addr for c in copy.committed] == \
            [c.addr for c in original.committed]
        assert [c.mispredicted for c in copy.committed] == \
            [c.mispredicted for c in original.committed]


@given(records=_random_records(),
       chunk_cycles=st.integers(1, 40),
       compress=st.booleans())
@settings(max_examples=40, deadline=None)
def test_property_v2_round_trip(records, chunk_cycles, compress):
    """Legacy v2 streams decode identically across chunk sizes and
    compression."""
    data = _legacy_trace(records, 2, chunk_cycles, compress)
    decoded = list(read_trace(io.BytesIO(data)))
    assert len(decoded) == len(records)
    for original, copy in zip(records, decoded):
        _records_equal(original, copy)


@given(records=_random_records(),
       chunk_cycles=st.integers(1, 40),
       compress=st.booleans())
@settings(max_examples=40, deadline=None)
def test_property_v3_index_and_chunks(records, chunk_cycles, compress):
    """The chunk directory tiles the trace: dense cycle ranges, carry
    state derivable from the record prefix, chunks decodable in
    isolation."""
    data = _write_v3(records, chunk_cycles, compress)
    index = read_index(data)
    assert index.banks == 4
    assert index.compressed == compress
    assert index.chunk_cycles == chunk_cycles
    assert index.total_records == len(records)

    rebuilt = []
    expected_start = 0
    reference = ChunkCarry()
    with TraceReaderV3(data) as reader:
        for chunk in reader.index.chunks:
            assert chunk.start_cycle == expected_start
            assert 0 < chunk.n_records <= chunk_cycles
            expected_start += chunk.n_records
            # The header carry equals the carry at the chunk's first
            # cycle.
            assert chunk.carry == reference
            chunk_records = list(reader.chunk_block(chunk).records())
            for record in chunk_records:
                _advance_carry(reference, record)
            rebuilt.extend(chunk_records)
    assert len(rebuilt) == len(records)
    for original, copy in zip(records, rebuilt):
        _records_equal(original, copy)


def test_trace_without_records_replays_zero_cycles():
    """A header-only trace -- written with no cycles, or converted from
    a header-only v1 file -- replays as 0 cycles, not 1."""
    from repro.fastpath import replay_blocks
    written = io.BytesIO()
    TraceWriterV3(written, banks=4).on_finish(0)
    converted = io.BytesIO()
    assert convert_trace(MAGIC + bytes([4]), converted) == 0
    for data in (written.getvalue(), converted.getvalue()):
        assert read_index(data).total_records == 0
        assert replay_blocks(data, OracleProfiler(assemble(SRC))) == 0
        assert replay_trace(data) == 0


def test_chunk_carry_exception_follows_same_cycle_commit():
    """The carried OIR follows the per-record order: a record that both
    commits and excepts leaves its exception in the OIR, and the
    youngest commit as the last committed address."""
    from conftest import make_record
    records = [make_record(0, committed=[(0x40, True, False)],
                           exception=0x80, banks=4),
               make_record(1, banks=4)]
    reference = ChunkCarry()
    _advance_carry(reference, records[0])
    carry = read_index(_write_v3(records, chunk_cycles=1)).chunks[1].carry
    assert carry == reference
    assert (carry.oir_addr, carry.oir_flag, carry.last_committed) == \
        (0x80, OIR_EXCEPTION, 0x40)


def test_read_index_rejects_v1():
    """Legacy traces have no v3 chunk directory; the error names the
    upgrade path."""
    for name, version in (("golden_v1.tiptrace", "v1"),
                          ("golden_v2.tiptrace", "v2")):
        with pytest.raises(ValueError, match=version) as info:
            read_index(_fixture(name))
        assert "repro convert-trace" in str(info.value)


def test_v2_replay_drives_profilers():
    """The per-record replay reads legacy traces: the frozen v1 and v2
    goldens drive a profiler exactly like the v3 golden."""
    from repro.kernel import Kernel
    with open(os.path.join(DATA, "golden.s")) as handle:
        image = Kernel().boot(assemble(handle.read(), name="golden.s"))
    streams = []
    for name in ("golden.tiptrace", "golden_v1.tiptrace",
                 "golden_v2.tiptrace"):
        tip = TipProfiler(SampleSchedule(7), image)
        cycles = replay_trace(_fixture(name), tip)
        streams.append((cycles, [(s.cycle, s.weights)
                                 for s in tip.samples]))
    assert streams[0][1]
    assert streams[1] == streams[0]
    assert streams[2] == streams[0]


# -- format v3: zero-copy columnar traces -------------------------------------


@given(records=_random_records(),
       chunk_cycles=st.integers(1, 40),
       compress=st.booleans())
@settings(max_examples=40, deadline=None)
def test_property_v3_mmap_round_trip(records, chunk_cycles, compress):
    """An mmap-ed v3 file decodes to the records written, and the
    layout invariants hold: 8-aligned chunk payloads, raw size equal to
    payload size unless zlib ran."""
    data = _write_v3(records, chunk_cycles, compress)
    fd, path = tempfile.mkstemp(suffix=".tiptrace")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        with TraceReaderV3(path) as reader:
            assert reader.index.total_records == len(records)
            for chunk in reader.index.chunks:
                assert chunk.offset % 8 == 0
                if not compress:
                    assert chunk.payload_bytes == chunk.raw_bytes
            decoded = list(reader.records())
    finally:
        os.unlink(path)
    assert len(decoded) == len(records)
    for original, copy in zip(records, decoded):
        _records_equal(original, copy)


def test_v3_empty_trace():
    """A v3 trace with zero records is just the 16-byte header."""
    data = _write_v3([], 8, False)
    assert len(data) == 16
    with TraceReaderV3(data) as reader:
        assert reader.index.total_records == 0
        assert reader.index.chunks == []
        assert list(reader.records()) == []


def test_v3_single_cycle_chunks():
    """chunk_cycles=1 degenerates to one record per chunk."""
    from conftest import make_record
    records = [make_record(c, fetch_pc=0x1000 + 4 * c, banks=4)
               for c in range(5)]
    data = _write_v3(records, 1, False)
    with TraceReaderV3(data) as reader:
        assert len(reader.index.chunks) == 5
        assert all(chunk.n_records == 1
                   for chunk in reader.index.chunks)
        decoded = list(reader.records())
    for original, copy in zip(records, decoded):
        _records_equal(original, copy)


def test_v3_stall_run_split_across_chunks():
    """A stall-run block ending mid-chunk splits losslessly."""
    from conftest import make_record
    from repro.fastpath import CycleBlock
    stall = make_record(0, rob_head=0x4000, fetch_pc=0x4000, banks=4)
    tail = make_record(0, committed=[(0x4000, False, False)],
                       fetch_pc=0x4004, banks=4)
    buffer = io.BytesIO()
    writer = TraceWriterV3(buffer, banks=4, chunk_cycles=4)
    # The stall spans chunks 0..2.
    writer.on_block(CycleBlock.from_runs([(stall, 10)], 4))
    feed_records(writer, [tail], 4)
    writer.on_finish(10)
    with TraceReaderV3(buffer.getvalue()) as reader:
        assert [chunk.n_records for chunk in reader.index.chunks] == \
            [4, 4, 3]
        decoded = list(reader.records())
    assert len(decoded) == 11
    # Cycles are reconstructed densely from the chunk start; every
    # other field round-trips the run's template record.
    expected = [make_record(c, rob_head=0x4000, fetch_pc=0x4000,
                            banks=4) for c in range(10)]
    expected.append(make_record(10, committed=[(0x4000, False, False)],
                                fetch_pc=0x4004, banks=4))
    for original, copy in zip(expected, decoded):
        _records_equal(original, copy)


def test_v3_zlib_fallback_decodes_identically(recorded):
    """Compressed v3 traces lose zero-copy but not correctness."""
    data, collector, _ = recorded
    plain, packed = io.BytesIO(), io.BytesIO()
    convert_trace(data, plain, chunk_cycles=256)
    convert_trace(data, packed, chunk_cycles=256, compress=True)
    assert len(packed.getvalue()) < len(plain.getvalue()) / 2
    with TraceReaderV3(packed.getvalue()) as reader:
        decoded = list(reader.records())
    assert len(decoded) == len(collector.records)
    for original, copy in zip(collector.records, decoded):
        _records_equal(original, copy)


def test_open_reader_dispatches_on_magic(recorded):
    """v3 opens; legacy traces are rejected with the upgrade path named;
    anything else is not a trace."""
    data, _, _ = recorded
    with open_reader(data) as reader:
        assert isinstance(reader, TraceReaderV3)
    for name in ("golden_v1.tiptrace", "golden_v2.tiptrace"):
        with pytest.raises(ValueError, match="repro convert-trace"):
            open_reader(_fixture(name))
    with pytest.raises(ValueError, match="not a TIP trace"):
        open_reader(b"BOGUS123" + bytes(64))


# -- conversion ---------------------------------------------------------------


def test_convert_v1_to_v3_preserves_records():
    v3 = io.BytesIO()
    converted = convert_trace(_fixture("golden_v1.tiptrace"), v3,
                              chunk_cycles=64)
    reference = list(read_trace(io.BytesIO(_fixture("golden.tiptrace"))))
    assert converted == len(reference) == 4131
    decoded = list(read_trace(io.BytesIO(v3.getvalue())))
    assert len(decoded) == len(reference)
    for original, copy in zip(reference, decoded):
        _records_equal(original, copy)


def test_convert_round_trips_are_byte_identical(recorded):
    """Re-chunking a v3 trace and back reproduces its bytes, and both
    legacy goldens convert to the v3 golden byte for byte."""
    data, _, _ = recorded
    v3_64 = io.BytesIO()
    convert_trace(data, v3_64, chunk_cycles=64)
    v3_256 = io.BytesIO()
    convert_trace(v3_64.getvalue(), v3_256, chunk_cycles=256)
    again = io.BytesIO()
    convert_trace(v3_256.getvalue(), again, chunk_cycles=64)
    assert again.getvalue() == v3_64.getvalue()
    same = io.BytesIO()
    convert_trace(data, same)
    assert same.getvalue() == data

    golden = _fixture("golden.tiptrace")
    for name in ("golden_v1.tiptrace", "golden_v2.tiptrace"):
        out = io.BytesIO()
        convert_trace(_fixture(name), out, chunk_cycles=256)
        assert out.getvalue() == golden, name


@given(records=_random_records(),
       chunk_cycles=st.integers(1, 40),
       compress=st.booleans())
@settings(max_examples=30, deadline=None)
def test_property_v2_v3_conversion_round_trip(records, chunk_cycles,
                                              compress):
    """Converting a legacy v1 or v2 trace writes exactly what the v3
    writer writes for the same records."""
    expected = _write_v3(records, chunk_cycles, compress)
    for legacy in (_legacy_trace(records, 1),
                   _legacy_trace(records, 2, chunk_cycles, compress)):
        v3 = io.BytesIO()
        converted = convert_trace(legacy, v3, chunk_cycles=chunk_cycles,
                                  compress=compress)
        assert converted == len(records)
        assert v3.getvalue() == expected


def test_v3_replay_drives_profilers(recorded):
    """A re-chunked v3 trace replays identically, per record and in
    blocks."""
    from repro.fastpath import replay_blocks
    data, _, machine = recorded
    v3 = io.BytesIO()
    convert_trace(data, v3, chunk_cycles=64)
    profilers = [TipProfiler(SampleSchedule(7), machine.image)
                 for _ in range(3)]
    assert replay_trace(data, profilers[0]) == \
        replay_trace(v3.getvalue(), profilers[1]) == \
        replay_blocks(v3.getvalue(), profilers[2])
    streams = [[(s.cycle, s.weights) for s in p.samples]
               for p in profilers]
    assert streams[0] and streams[1] == streams[0] == streams[2]


@pytest.mark.parametrize("source", ["garbage", "cut"])
def test_convert_keeps_destination_on_bad_input(tmp_path, source):
    """A source that is not a trace, or is cut short, leaves an existing
    destination byte-identical and no temporary file behind."""
    golden_v2 = _fixture("golden_v2.tiptrace")
    src = tmp_path / "in.tiptrace"
    src.write_bytes(b"not a trace at all" if source == "garbage"
                    else golden_v2[:1000])
    dest = tmp_path / "out.tiptrace"
    dest.write_bytes(golden_v2)
    with pytest.raises(ValueError):
        convert_trace(str(src), str(dest))
    assert dest.read_bytes() == golden_v2
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["in.tiptrace", "out.tiptrace"]
