"""perf-style binary record encoding tests (Section 3.2 sizes)."""

import pytest

from repro.core.perfio import (PerfDecoder, PerfEncoder, PerfSession,
                               RecordLayout)
from repro.core.samples import Category, Sample


def test_record_sizes_match_paper():
    assert RecordLayout(4, True).record_bytes == 88
    assert RecordLayout(4, False).record_bytes == 56
    assert RecordLayout(2, True).record_bytes == 72


def test_tip_roundtrip_multi_address():
    encoder = PerfEncoder(banks=4, ilp_aware=True)
    decoder = PerfDecoder(banks=4, ilp_aware=True)
    sample = Sample(1234, 13, [(0x10000, 0.5), (0x10004, 0.5)],
                    Category.EXECUTION)
    decoded = decoder.decode(encoder.encode(sample))
    assert len(decoded) == 1
    out = decoded[0]
    assert out.cycle == 1234
    assert out.interval == 13
    assert sorted(out.weights) == [(0x10000, 0.5), (0x10004, 0.5)]
    assert out.category is Category.EXECUTION


def test_baseline_roundtrip_single_address():
    encoder = PerfEncoder(banks=4, ilp_aware=False)
    decoder = PerfDecoder(banks=4, ilp_aware=False)
    sample = Sample(99, 13, [(0x2000, 1.0)])
    out = decoder.decode(encoder.encode(sample))[0]
    assert out.weights == [(0x2000, 1.0)]
    assert out.category is None


def test_flag_roundtrip():
    encoder = PerfEncoder(banks=4, ilp_aware=True)
    decoder = PerfDecoder(banks=4, ilp_aware=True)
    for category, expected in [
        (Category.MISPREDICT, Category.MISPREDICT),
        (Category.MISC_FLUSH, Category.MISC_FLUSH),
        (Category.FRONTEND, Category.FRONTEND),
        (Category.EXECUTION, Category.EXECUTION),
    ]:
        sample = Sample(1, 13, [(0x1000, 1.0)], category)
        out = decoder.decode(encoder.encode(sample))[0]
        assert out.category is expected, category


def test_stall_category_not_encoded():
    """Stall type comes from the binary at post-processing time, so the
    flags only say 'stalled' (Section 3.1)."""
    encoder = PerfEncoder(banks=4, ilp_aware=True)
    decoder = PerfDecoder(banks=4, ilp_aware=True)
    sample = Sample(1, 13, [(0x1000, 1.0)], Category.LOAD_STALL)
    out = decoder.decode(encoder.encode(sample))[0]
    assert out.category is None


def test_empty_sample_roundtrip():
    encoder = PerfEncoder(banks=4, ilp_aware=True)
    decoder = PerfDecoder(banks=4, ilp_aware=True)
    out = decoder.decode(encoder.encode(Sample(7, 13, [])))[0]
    assert out.weights == []


def test_decoder_rejects_torn_buffer():
    decoder = PerfDecoder(banks=4, ilp_aware=True)
    with pytest.raises(ValueError, match="record size"):
        decoder.decode(b"\x00" * 87)


def test_session_profile_matches_direct_aggregation():
    """Post-processing the binary buffer reproduces the profiler's own
    profile exactly."""
    from repro.harness import run_workload, ProfilerConfig
    from repro.workloads import build_workload, k_int_ilp, k_stream_load

    workload = build_workload("t", [
        k_int_ilp("a", 600, width=6),
        k_stream_load("b", 200, 0x20_0000, 64 * 1024),
    ])
    result = run_workload(workload, [ProfilerConfig("TIP", 17)])
    tip = result.profilers["TIP"]
    session = PerfSession(tip, banks=4)
    assert session.bytes_per_sample == 88
    reconstructed = session.profile()
    direct = tip.profile()
    assert set(reconstructed) == set(direct)
    for addr, value in direct.items():
        assert reconstructed[addr] == pytest.approx(value)


def test_session_data_volume():
    """Total buffer size = samples x 88 B, the Section 3.2 data rate."""
    from repro.harness import run_workload, ProfilerConfig
    from repro.workloads import build_workload, k_int_ilp

    workload = build_workload("t", [k_int_ilp("a", 400, width=6)])
    result = run_workload(workload, [ProfilerConfig("TIP", 31),
                                     ProfilerConfig("NCI", 31)])
    tip_session = PerfSession(result.profilers["TIP"], banks=4)
    nci_session = PerfSession(result.profilers["NCI"], banks=4)
    tip_buffer = tip_session.drain()
    nci_buffer = nci_session.drain()
    num = len(result.profilers["TIP"].samples)
    assert len(tip_buffer) == num * 88
    assert len(nci_buffer) == num * 56
