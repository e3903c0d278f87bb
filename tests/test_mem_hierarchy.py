"""Unit tests for the assembled memory hierarchy."""

from repro.mem.hierarchy import MemoryConfig, MemoryHierarchy


def _hierarchy():
    hierarchy = MemoryHierarchy(MemoryConfig())
    hierarchy.page_table.map_range(0, 16 * 1024 * 1024)
    return hierarchy


def test_llc_hit_costs_about_forty_cycles():
    """Section 2.2: an L1 miss served by the LLC costs ~40 cycles."""
    hierarchy = _hierarchy()
    addr = 0x8000
    cold = hierarchy.data_access(addr, 0)          # fills all levels
    assert cold.served_by == "DRAM"
    # Evict from L1 and L2 but not the LLC: 64 KB spacing aliases in the
    # 64-set L1 and 1024-set L2 but lands in distinct LLC sets.
    span = 64 * 1024
    cycle = 1000
    for i in range(1, 18):
        hierarchy.data_access(addr + i * span, cycle)
        cycle += 500
    result = hierarchy.data_access(addr, cycle + 10_000)
    assert result.served_by == "LLC"
    assert 30 <= result.latency <= 55


def test_l1_hit_is_fast():
    hierarchy = _hierarchy()
    hierarchy.data_access(0x4000, 0)
    hit = hierarchy.data_access(0x4000, 500)
    assert hit.served_by == "L1D"
    assert hit.latency <= 3


def test_inst_fetch_separate_from_data():
    hierarchy = _hierarchy()
    hierarchy.inst_fetch(0x4000, 0)
    assert hierarchy.l1i.stats.accesses == 1
    assert hierarchy.l1d.stats.accesses == 0


def test_unmapped_data_access_faults():
    hierarchy = MemoryHierarchy(MemoryConfig())
    result = hierarchy.data_access(0x5_0000, 0)
    assert result.fault


def test_unmapped_fetch_faults():
    hierarchy = MemoryHierarchy(MemoryConfig())
    result = hierarchy.inst_fetch(0x5_0000, 0)
    assert result.fault


def test_shared_l2_between_i_and_d():
    hierarchy = _hierarchy()
    hierarchy.inst_fetch(0x6000, 0)
    # A data access to the same line hits in the shared L2.
    result = hierarchy.data_access(0x6000, 1000)
    assert result.served_by == "L2"


def test_reset():
    hierarchy = _hierarchy()
    hierarchy.data_access(0x4000, 0)
    hierarchy.reset()
    assert hierarchy.l1d.stats.accesses == 0
    result = hierarchy.data_access(0x4000, 0)
    assert result.served_by == "DRAM"


def test_config_defaults_match_table1():
    cfg = MemoryConfig()
    assert cfg.l1i_size == 32 * 1024 and cfg.l1i_assoc == 8
    assert cfg.l1d_size == 32 * 1024 and cfg.l1d_assoc == 8
    assert cfg.l1d_mshrs == 8
    assert cfg.l2_size == 512 * 1024 and cfg.l2_mshrs == 12
    assert cfg.llc_size == 4 * 1024 * 1024 and cfg.llc_mshrs == 8
    assert cfg.itlb_entries == 32 and cfg.dtlb_entries == 32
    assert cfg.l2tlb_entries == 512
