"""Full memory hierarchy: L1I/L1D -> L2 -> LLC -> DRAM plus TLBs.

The default latencies are chosen so that an L1 miss served by the LLC
costs ~40 cycles, matching the paper's Section 2.2 example ("a 40-cycle
latency is consistent with a partially hidden LLC hit in our setup").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cache import Cache, MainMemory
from .tlb import PageTable, PageTableWalker, Tlb, TlbHierarchy


@dataclass
class MemoryConfig:
    """Geometry and timing of the memory system (Table 1 defaults)."""

    block_size: int = 64
    l1i_size: int = 32 * 1024
    l1i_assoc: int = 8
    l1i_latency: int = 1
    l1i_mshrs: int = 8
    l1d_size: int = 32 * 1024
    l1d_assoc: int = 8
    l1d_latency: int = 2
    l1d_mshrs: int = 8
    l2_size: int = 512 * 1024
    l2_assoc: int = 8
    l2_latency: int = 12
    l2_mshrs: int = 12
    llc_size: int = 4 * 1024 * 1024
    llc_assoc: int = 8
    llc_latency: int = 26
    llc_mshrs: int = 8
    dram_latency: int = 100
    dram_cycles_per_access: int = 4
    itlb_entries: int = 32
    dtlb_entries: int = 32
    l2tlb_entries: int = 512
    next_line_prefetcher: bool = True


@dataclass
class MemoryAccessOutcome:
    """Result of a translated memory access."""

    latency: int
    fault: bool
    served_by: str
    translation: str


class MemoryHierarchy:
    """The complete memory system used by the out-of-order core."""

    def __init__(self, config: Optional[MemoryConfig] = None,
                 page_table: Optional[PageTable] = None):
        self.config = config or MemoryConfig()
        cfg = self.config
        self.page_table = page_table or PageTable()

        self.dram = MainMemory(cfg.dram_latency, cfg.dram_cycles_per_access)
        self.llc = Cache("LLC", cfg.llc_size, cfg.llc_assoc, cfg.block_size,
                         cfg.llc_latency, cfg.llc_mshrs, self.dram)
        self.l2 = Cache("L2", cfg.l2_size, cfg.l2_assoc, cfg.block_size,
                        cfg.l2_latency, cfg.l2_mshrs, self.llc)
        self.l1i = Cache("L1I", cfg.l1i_size, cfg.l1i_assoc, cfg.block_size,
                         cfg.l1i_latency, cfg.l1i_mshrs, self.l2,
                         prefetch_next_line=cfg.next_line_prefetcher)
        self.l1d = Cache("L1D", cfg.l1d_size, cfg.l1d_assoc, cfg.block_size,
                         cfg.l1d_latency, cfg.l1d_mshrs, self.l2,
                         prefetch_next_line=cfg.next_line_prefetcher)

        walker = PageTableWalker(self.l2)
        self.walker = walker
        self.itlb = TlbHierarchy(Tlb("ITLB", cfg.itlb_entries),
                                 Tlb("L2TLB-I", cfg.l2tlb_entries,
                                     direct_mapped=True),
                                 walker, self.page_table)
        self.dtlb = TlbHierarchy(Tlb("DTLB", cfg.dtlb_entries),
                                 Tlb("L2TLB-D", cfg.l2tlb_entries,
                                     direct_mapped=True),
                                 walker, self.page_table)

    # -- access ports --------------------------------------------------------

    def inst_fetch(self, addr: int, cycle: int) -> MemoryAccessOutcome:
        """Fetch an instruction cache block containing *addr*."""
        translation = self.itlb.translate(addr, cycle)
        if translation.fault:
            return MemoryAccessOutcome(translation.latency, True, "fault",
                                       translation.source)
        result = self.l1i.access(addr, cycle + translation.latency)
        return MemoryAccessOutcome(translation.latency + result.latency,
                                   False, result.served_by,
                                   translation.source)

    def data_access(self, addr: int, cycle: int,
                    is_write: bool = False) -> MemoryAccessOutcome:
        """Access data memory at *addr* (TLB + D-cache path)."""
        translation = self.dtlb.translate(addr, cycle)
        if translation.fault:
            return MemoryAccessOutcome(translation.latency, True, "fault",
                                       translation.source)
        result = self.l1d.access(addr, cycle + translation.latency,
                                 is_write)
        return MemoryAccessOutcome(translation.latency + result.latency,
                                   False, result.served_by,
                                   translation.source)

    def reset(self) -> None:
        for cache in (self.l1i, self.l1d, self.l2, self.llc):
            cache.reset()
        self.dram.reset()
        for tlbs in (self.itlb, self.dtlb):
            tlbs.l1.reset()
            tlbs.l2.reset()
