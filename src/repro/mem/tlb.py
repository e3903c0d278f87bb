"""TLBs, the hardware page-table walker, and the page table.

Matches the Table 1 organisation: 32-entry fully-associative L1 I- and
D-TLBs backed by a 512-entry direct-mapped shared L2 TLB and a hardware
page-table walker.  A walk that finds no mapping raises a *page fault*
delivered to the core as a precise exception (Section 2.2's "page miss on
a load" walkthrough), which the miniature kernel then handles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

from .cache import MemoryLevel

PAGE_SIZE = 4096
PAGE_SHIFT = 12


def vpn_of(addr: int) -> int:
    """Virtual page number of *addr*."""
    return addr >> PAGE_SHIFT


class PageTable:
    """The set of mapped virtual pages (identity-mapped physical space)."""

    def __init__(self):
        self._mapped: Set[int] = set()
        self.faults_taken = 0

    def map_page(self, vpn: int) -> None:
        self._mapped.add(vpn)

    def map_range(self, lo_addr: int, hi_addr: int) -> None:
        """Map every page overlapping [lo_addr, hi_addr)."""
        last = vpn_of(max(hi_addr - 1, lo_addr))
        for vpn in range(vpn_of(lo_addr), last + 1):
            self._mapped.add(vpn)

    def unmap_page(self, vpn: int) -> None:
        self._mapped.discard(vpn)

    def is_mapped(self, vpn: int) -> bool:
        return vpn in self._mapped

    def __len__(self) -> int:
        return len(self._mapped)


@dataclass
class TranslationResult:
    """Outcome of a TLB translation."""

    latency: int
    fault: bool
    #: Where the translation was found: "l1", "l2", "walk", or "fault".
    source: str


#: Every L1 TLB hit returns this one result; callers only read results.
_L1_HIT = TranslationResult(0, False, "l1")


class Tlb:
    """A fully-associative LRU TLB (L1) or direct-mapped TLB (L2)."""

    def __init__(self, name: str, entries: int, direct_mapped: bool = False):
        self.name = name
        self.capacity = entries
        self.direct_mapped = direct_mapped
        self._assoc_entries: List[int] = []
        self._direct_entries: Dict[int, int] = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, vpn: int) -> bool:
        if self.direct_mapped:
            hit = self._direct_entries.get(vpn % self.capacity) == vpn
        else:
            entries = self._assoc_entries
            hit = vpn in entries
            if hit and entries[-1] != vpn:  # else already most recent
                entries.remove(vpn)
                entries.append(vpn)
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        return hit

    def insert(self, vpn: int) -> None:
        if self.direct_mapped:
            self._direct_entries[vpn % self.capacity] = vpn
        else:
            if vpn in self._assoc_entries:
                self._assoc_entries.remove(vpn)
            elif len(self._assoc_entries) >= self.capacity:
                self._assoc_entries.pop(0)
            self._assoc_entries.append(vpn)

    def flush_entry(self, vpn: int) -> None:
        if self.direct_mapped:
            slot = vpn % self.capacity
            if self._direct_entries.get(slot) == vpn:
                del self._direct_entries[slot]
        elif vpn in self._assoc_entries:
            self._assoc_entries.remove(vpn)

    def reset(self) -> None:
        self._assoc_entries.clear()
        self._direct_entries.clear()
        self.hits = 0
        self.misses = 0


class PageTableWalker:
    """Two-level hardware page-table walk through the cache hierarchy.

    Each level of the walk is a dependent memory access to a synthetic
    page-table address, issued into *walk_port* (normally the L2 cache),
    so repeated walks to nearby pages hit in the cache and become cheap,
    while cold walks pay main-memory latency -- mirroring real PTW
    behaviour.
    """

    #: Region of the address space holding page-table memory.
    PT_BASE = 0x4000_0000

    def __init__(self, walk_port: MemoryLevel, levels: int = 2):
        self.walk_port = walk_port
        self.levels = levels
        self.walks = 0

    def walk(self, vpn: int, cycle: int) -> int:
        """Return the latency of walking the tables for *vpn*."""
        self.walks += 1
        latency = 0
        key = vpn
        for level in range(self.levels):
            pte_addr = self.PT_BASE + (key >> (9 * level)) * 8
            result = self.walk_port.access(pte_addr, cycle + latency)
            latency += result.latency
        return latency


class TlbHierarchy:
    """L1 TLB + shared L2 TLB + walker for one access port (I or D)."""

    L1_LATENCY = 1
    L2_LATENCY = 4

    def __init__(self, l1: Tlb, l2: Tlb, walker: PageTableWalker,
                 page_table: PageTable):
        self.l1 = l1
        self.l2 = l2
        self.walker = walker
        self.page_table = page_table

    def translate(self, addr: int, cycle: int) -> TranslationResult:
        vpn = addr >> PAGE_SHIFT
        if self.l1.lookup(vpn):
            return _L1_HIT
        if self.l2.lookup(vpn):
            self.l1.insert(vpn)
            return TranslationResult(self.L2_LATENCY, False, "l2")
        walk_latency = self.L2_LATENCY + self.walker.walk(vpn, cycle)
        if not self.page_table.is_mapped(vpn):
            return TranslationResult(walk_latency, True, "fault")
        self.l1.insert(vpn)
        self.l2.insert(vpn)
        return TranslationResult(walk_latency, False, "walk")
