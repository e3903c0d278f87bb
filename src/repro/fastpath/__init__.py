"""Columnar trace replay: chunks as blocks, not records.

Per-record replay pays a Python object and a method call per cycle per
observer; profiling long traces spends most of its time in that glue.
This package replays v3 traces in **columnar batches** instead: each
chunk's stored columns become one :class:`CycleBlock` of parallel
arrays without a decode loop, every observer consumes the whole block
through ``on_block``, and block-native profilers touch only the cycles
where something can happen.  Results are bit-identical to per-record
replay for every stock observer.

See ``docs/performance.md`` for the layout and the measured speedups.
"""

from .bench import (HOTPATH_POLICIES, render_hotpath_bench,
                    run_hotpath_bench)
from .block import CycleBlock
from .engine import replay_blocks, replay_with_engine

__all__ = [
    "CycleBlock",
    "HOTPATH_POLICIES",
    "render_hotpath_bench",
    "replay_blocks",
    "run_hotpath_bench",
    "replay_with_engine",
]
