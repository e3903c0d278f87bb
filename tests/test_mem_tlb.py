"""Unit tests for TLBs, the page-table walker, and page tables."""

from repro.mem.cache import MainMemory
from repro.mem.tlb import (PAGE_SIZE, PageTable, PageTableWalker, Tlb,
                           TlbHierarchy, vpn_of)


def _hierarchy(entries=4, l2_entries=16):
    page_table = PageTable()
    memory = MainMemory(latency=50, cycles_per_access=0)
    walker = PageTableWalker(memory)
    l1 = Tlb("L1", entries)
    l2 = Tlb("L2", l2_entries, direct_mapped=True)
    return TlbHierarchy(l1, l2, walker, page_table), page_table


def test_vpn_of():
    assert vpn_of(0) == 0
    assert vpn_of(PAGE_SIZE - 1) == 0
    assert vpn_of(PAGE_SIZE) == 1
    assert vpn_of(0x12345) == 0x12


def test_page_table_map_range():
    table = PageTable()
    table.map_range(0x1000, 0x3000)
    assert table.is_mapped(1)
    assert table.is_mapped(2)
    assert not table.is_mapped(3)
    assert len(table) == 2


def test_map_range_empty_range_maps_first_page():
    table = PageTable()
    table.map_range(0x1000, 0x1000)
    assert table.is_mapped(1)


def test_miss_then_walk_then_hit():
    tlbs, table = _hierarchy()
    table.map_page(5)
    addr = 5 * PAGE_SIZE
    first = tlbs.translate(addr, 0)
    assert first.source == "walk"
    assert first.latency > 0
    second = tlbs.translate(addr, 100)
    assert second.source == "l1"
    assert second.latency == 0


def test_unmapped_page_faults():
    tlbs, _ = _hierarchy()
    result = tlbs.translate(0x10_0000, 0)
    assert result.fault
    assert result.source == "fault"


def test_fault_not_cached_in_tlb():
    tlbs, table = _hierarchy()
    assert tlbs.translate(0x10_0000, 0).fault
    table.map_page(vpn_of(0x10_0000))
    # After the OS maps the page, translation must succeed via a walk.
    result = tlbs.translate(0x10_0000, 100)
    assert not result.fault
    assert result.source == "walk"


def test_l1_tlb_lru_and_l2_backing():
    tlbs, table = _hierarchy(entries=2)
    for vpn in range(4):
        table.map_page(vpn)
    for vpn in range(4):
        tlbs.translate(vpn * PAGE_SIZE, vpn * 100)
    # vpn 0 was evicted from the 2-entry L1 but lives in the L2 TLB.
    result = tlbs.translate(0, 1000)
    assert result.source == "l2"


def test_direct_mapped_conflicts():
    tlb = Tlb("L2", 4, direct_mapped=True)
    tlb.insert(0)
    tlb.insert(4)  # same slot
    assert not tlb.lookup(0)
    assert tlb.lookup(4)


def test_flush_entry():
    tlb = Tlb("L1", 4)
    tlb.insert(7)
    assert tlb.lookup(7)
    tlb.flush_entry(7)
    assert not tlb.lookup(7)


def test_walker_latency_uses_memory_system():
    memory = MainMemory(latency=50, cycles_per_access=0)
    walker = PageTableWalker(memory, levels=2)
    latency = walker.walk(123, 0)
    assert latency >= 100  # two dependent memory accesses
    assert walker.walks == 1


def test_hit_statistics():
    tlb = Tlb("L1", 4)
    tlb.insert(1)
    tlb.lookup(1)
    tlb.lookup(2)
    assert tlb.hits == 1
    assert tlb.misses == 1
