"""perf-style binary sample records (Section 3.1/3.2).

When perf drains TIP's CSRs it writes fixed-size binary records: 40 B of
metadata (core/process/thread ids and friends) followed by the profiler
payload -- the cycle counter and one instruction address for non-ILP
profilers (56 B total), or the cycle counter, the flags CSR and one
address per ROB bank for TIP (88 B on the 4-wide core).  This module
implements that encoding, a session that accumulates raw records, and
the post-processing pass that turns a raw buffer back into samples --
mirroring how a real perf.data file is produced and consumed.

Address slots also encode each address's weight numerator implicitly:
the payload stores the valid addresses, and post-processing splits the
sample evenly across them, exactly as Section 3.1 describes ("add 1/n of
the value in the cycles register to each instruction's counter").
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from .samples import Category, Sample

#: 40 B of perf metadata: core, pid, tid, time, id (five u64).
_METADATA = struct.Struct("<5Q")
#: Non-ILP payload: cycles + one address.
_BASELINE_PAYLOAD = struct.Struct("<2Q")

#: TIP flag bits within the flags CSR.
FLAG_STALLED = 1 << 0
FLAG_EXCEPTION = 1 << 1
FLAG_FLUSH = 1 << 2
FLAG_MISPREDICTED = 1 << 3
FLAG_FRONTEND = 1 << 4

_CATEGORY_TO_FLAGS = {
    Category.EXECUTION: 0,
    Category.ALU_STALL: FLAG_STALLED,
    Category.LOAD_STALL: FLAG_STALLED,
    Category.STORE_STALL: FLAG_STALLED,
    Category.FRONTEND: FLAG_FRONTEND,
    Category.MISPREDICT: FLAG_MISPREDICTED,
    Category.MISC_FLUSH: FLAG_FLUSH,
}


@dataclass(frozen=True)
class RecordLayout:
    """Sizes of one encoded record for a given configuration."""

    banks: int
    ilp_aware: bool

    @property
    def payload_bytes(self) -> int:
        if self.ilp_aware:
            return (2 + self.banks) * 8  # cycles + flags + addresses
        return _BASELINE_PAYLOAD.size

    @property
    def record_bytes(self) -> int:
        return _METADATA.size + self.payload_bytes


class PerfEncoder:
    """Encodes samples into fixed-size binary records."""

    def __init__(self, banks: int = 4, ilp_aware: bool = True,
                 core_id: int = 0, pid: int = 1, tid: int = 1):
        self.layout = RecordLayout(banks, ilp_aware)
        self.core_id = core_id
        self.pid = pid
        self.tid = tid
        if ilp_aware:
            self._payload = struct.Struct(f"<{2 + banks}Q")
        else:
            self._payload = _BASELINE_PAYLOAD

    def encode(self, sample: Sample) -> bytes:
        metadata = _METADATA.pack(self.core_id, self.pid, self.tid,
                                  sample.cycle, 0)
        addrs = [addr for addr, _ in sample.weights]
        if self.layout.ilp_aware:
            flags = _CATEGORY_TO_FLAGS.get(sample.category, 0)
            slots = (addrs + [0] * self.layout.banks)[:self.layout.banks]
            payload = self._payload.pack(sample.interval, flags, *slots)
        else:
            addr = addrs[0] if addrs else 0
            payload = self._payload.pack(sample.interval, addr)
        return metadata + payload

    def encode_all(self, samples: Iterable[Sample]) -> bytes:
        return b"".join(self.encode(s) for s in samples)


class PerfDecoder:
    """Decodes a raw record buffer back into samples."""

    def __init__(self, banks: int = 4, ilp_aware: bool = True):
        self.layout = RecordLayout(banks, ilp_aware)
        if ilp_aware:
            self._payload = struct.Struct(f"<{2 + banks}Q")
        else:
            self._payload = _BASELINE_PAYLOAD

    def decode(self, buffer: bytes) -> List[Sample]:
        record_size = self.layout.record_bytes
        if len(buffer) % record_size:
            raise ValueError(
                f"buffer length {len(buffer)} is not a multiple of the "
                f"record size {record_size}")
        samples = []
        for offset in range(0, len(buffer), record_size):
            record = buffer[offset:offset + record_size]
            _core, _pid, _tid, cycle, _rsv = _METADATA.unpack_from(record)
            payload = record[_METADATA.size:]
            if self.layout.ilp_aware:
                fields = self._payload.unpack(payload)
                interval, flags = fields[0], fields[1]
                addrs = [a for a in fields[2:] if a]
                category = _flags_to_category(flags)
            else:
                interval, addr = self._payload.unpack(payload)
                addrs = [addr] if addr else []
                category = None
            share = 1.0 / len(addrs) if addrs else 0.0
            samples.append(Sample(cycle, interval,
                                  [(a, share) for a in addrs], category))
        return samples


def _flags_to_category(flags: int) -> Optional[Category]:
    if flags & FLAG_MISPREDICTED:
        return Category.MISPREDICT
    if flags & (FLAG_FLUSH | FLAG_EXCEPTION):
        return Category.MISC_FLUSH
    if flags & FLAG_FRONTEND:
        return Category.FRONTEND
    if flags & FLAG_STALLED:
        return None  # stall type recovered from the binary, not flags
    return Category.EXECUTION


class PerfSession:
    """Accumulates encoded records like perf's memory buffer.

    Wraps a profiler: call :meth:`drain` after the run to pull its
    samples through the binary encoding, then :meth:`profile` to
    post-process them, byte-identical to what a reader of the raw file
    would reconstruct.
    """

    def __init__(self, profiler, banks: int = 4,
                 ilp_aware: Optional[bool] = None):
        if ilp_aware is None:
            ilp_aware = getattr(profiler, "ilp_aware", False)
        self.profiler = profiler
        self.encoder = PerfEncoder(banks, ilp_aware)
        self.decoder = PerfDecoder(banks, ilp_aware)
        self.buffer = b""

    def drain(self) -> bytes:
        self.buffer = self.encoder.encode_all(self.profiler.samples)
        return self.buffer

    @property
    def bytes_per_sample(self) -> int:
        return self.encoder.layout.record_bytes

    def decoded_samples(self) -> List[Sample]:
        if not self.buffer:
            self.drain()
        return self.decoder.decode(self.buffer)

    def profile(self) -> Dict[int, float]:
        """addr -> time profile reconstructed from the raw buffer."""
        profile: Dict[int, float] = {}
        for sample in self.decoded_samples():
            for addr, fraction in sample.weights:
                profile[addr] = profile.get(addr, 0.0) \
                    + sample.interval * fraction
        return profile
