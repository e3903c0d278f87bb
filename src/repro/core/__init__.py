"""The paper's contribution: Oracle, TIP and the baseline profilers."""

from .baselines import (DispatchProfiler, LciProfiler, NciIlpProfiler,
                        NciProfiler, SoftwareProfiler)
from .oracle import OracleProfiler, OracleReport
from .perfio import PerfDecoder, PerfEncoder, PerfSession, RecordLayout
from .overhead import (OverheadSummary, oracle_data_rate,
                       sample_payload_bytes, sample_record_bytes,
                       sampling_data_rate, summarize, tip_storage_bytes)
from .profiler import SamplingProfiler
from .samples import Attribution, Category, FlushKind, Sample, stall_category
from .sampling import (CORE_CLOCK_HZ, DEFAULT_FREQUENCY_HZ, SampleSchedule,
                       period_for_frequency)
from .tip import TipIlpProfiler, TipProfiler

__all__ = [
    "DispatchProfiler", "LciProfiler", "NciIlpProfiler", "NciProfiler",
    "SoftwareProfiler", "OracleProfiler", "OracleReport",
    "PerfDecoder", "PerfEncoder", "PerfSession", "RecordLayout",
    "OverheadSummary", "oracle_data_rate", "sample_payload_bytes",
    "sample_record_bytes", "sampling_data_rate", "summarize",
    "tip_storage_bytes", "SamplingProfiler", "Attribution", "Category",
    "FlushKind", "Sample", "stall_category", "CORE_CLOCK_HZ",
    "DEFAULT_FREQUENCY_HZ",
    "SampleSchedule", "period_for_frequency", "TipIlpProfiler",
    "TipProfiler",
]
