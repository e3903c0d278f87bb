"""Out-of-order core substrate (BOOM-style, Table 1 configuration)."""

from .branch import BranchTargetBuffer, Prediction, ReturnAddressStack, \
    TagePredictor
from .config import CoreConfig
from .core import (FAST_SIM, SIM_MODES, STEP_SIM, Core, CoreStats,
                   MaxCyclesExceeded, SimFastError, SimulationError)
from .machine import Machine
from .trace import (CommittedInst, CycleRecord, TraceCollector,
                    TraceObserver, replay, shifted_record)
from .tracefile import (ChunkCarry, ChunkInfo, DEFAULT_CHUNK_CYCLES,
                        TraceIndex, TraceReaderV3, TraceWriterV3,
                        convert_trace, open_reader, read_index,
                        read_trace, replay_trace)
from .uop import MicroOp, MicroOpPool

__all__ = [
    "BranchTargetBuffer", "Prediction", "ReturnAddressStack",
    "TagePredictor", "CoreConfig", "Core", "CoreStats", "SimulationError",
    "MaxCyclesExceeded", "SimFastError", "STEP_SIM", "FAST_SIM",
    "SIM_MODES",
    "Machine", "CommittedInst", "CycleRecord", "TraceCollector",
    "TraceObserver", "replay", "MicroOp", "MicroOpPool",
    "ChunkCarry", "ChunkInfo", "DEFAULT_CHUNK_CYCLES", "TraceIndex",
    "TraceReaderV3", "TraceWriterV3", "convert_trace", "open_reader",
    "read_index", "read_trace", "replay_trace",
    "shifted_record",
]
