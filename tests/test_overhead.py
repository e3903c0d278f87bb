"""Section 3.2 overhead model tests: the paper's exact numbers."""

import pytest

from repro.core.overhead import (oracle_data_rate, sample_payload_bytes,
                                 sample_record_bytes, sampling_data_rate,
                                 summarize, tip_storage_bytes)
from repro.cpu.config import CoreConfig


CFG = CoreConfig.boom_4wide()


def test_storage_is_57_bytes_for_4wide():
    """9 B OIR + six 64-bit CSRs (cycle, flags, 4 addresses) = 57 B."""
    assert tip_storage_bytes(CFG) == 57


def test_tip_sample_is_88_bytes():
    """40 B perf metadata + 4 addresses + cycle + flags = 88 B."""
    assert sample_record_bytes(CFG, ilp_aware=True) == 88


def test_baseline_sample_is_56_bytes():
    """40 B perf metadata + 1 address + cycle = 56 B (PEBS default)."""
    assert sample_record_bytes(CFG, ilp_aware=False) == 56


def test_data_rates_at_4khz():
    """352 KB/s for TIP versus 224 KB/s for non-ILP-aware profilers."""
    assert sampling_data_rate(CFG, True, 4000) == 352_000
    assert sampling_data_rate(CFG, False, 4000) == 224_000


def test_oracle_rate_is_about_179_gb_per_s():
    rate = oracle_data_rate(CFG)
    assert rate == pytest.approx(179.2e9)


def test_summary_reduction_is_orders_of_magnitude():
    summary = summarize(CFG)
    assert summary.reduction_vs_oracle > 1e5  # "several orders of magnitude"
    assert summary.storage_bytes == 57
    assert summary.tip_sample_bytes == 88
    assert summary.baseline_sample_bytes == 56


def test_scaling_with_commit_width():
    narrow = CoreConfig.tiny()  # 2-wide
    assert sample_payload_bytes(narrow, True) == 4 * 8  # 2 addrs + 2 CSRs
    assert tip_storage_bytes(narrow) < tip_storage_bytes(CFG)
