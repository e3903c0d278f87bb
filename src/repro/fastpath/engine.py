"""Block replay: drive observers over a v3 trace one chunk at a time.

:func:`replay_blocks` maps a v3 trace, wraps each chunk's stored
columns as a :class:`~repro.fastpath.block.CycleBlock` and calls
``on_block`` once per observer per chunk.  Observers without a
columnar fast path fall back to a loop over ``on_cycle`` (the
:class:`~repro.cpu.trace.TraceObserver` default), so block replay is
bit-identical to the per-record reference
:func:`~repro.cpu.tracefile.replay_trace` by construction -- it only
changes *how often Python function calls happen*, never what the
observers see.
"""

from __future__ import annotations

from typing import Iterable, Union

from ..cpu.trace import TraceObserver
from ..cpu.tracefile import TraceReaderV3, open_reader

TraceSource = Union[bytes, str, object]


def replay_blocks(source: TraceSource,
                  *observers: TraceObserver) -> int:
    """Replay a v3 trace through *observers* one chunk-block at a time.

    *source* may also be an already-open :class:`TraceReaderV3`; the
    reader is then reused (one fd/mmap across repeated replays) and
    left open for the caller to close.  Returns the cycle count (0 for
    a trace without records).  Raises :class:`ValueError` for legacy
    v1/v2 traces (upgrade them with ``repro convert-trace``).
    """
    cycles = 0
    if isinstance(source, TraceReaderV3):
        reader = source
        owns = False
    else:
        reader = open_reader(source)
        owns = True
    try:
        for chunk in reader.index.chunks:
            block = reader.chunk_block(chunk)
            for observer in observers:
                observer.on_block(block)
            cycles = chunk.start_cycle + chunk.n_records
    finally:
        if owns:
            reader.close()
    for observer in observers:
        observer.on_finish(max(cycles - 1, 0))
    return cycles


def replay_with_engine(source: TraceSource,
                       observers: Iterable[TraceObserver],
                       engine: str = "block") -> int:
    """:func:`replay_blocks` under its older, engine-naming entry point.

    ``"block"`` is the only engine; any other value raises
    :class:`ValueError`.  Returns the cycle count.
    """
    if engine != "block":
        raise ValueError(f"unknown replay engine {engine!r} "
                         f"(block replay is the only one)")
    return replay_blocks(source, *observers)
