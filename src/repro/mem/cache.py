"""Set-associative cache model with MSHRs and an optional next-line
prefetcher.

The memory system uses a *latency-query* timing style: an access issued at
cycle ``c`` immediately computes the cycle at which its data is available,
recursing into lower levels on a miss.  MSHR occupancy is tracked over
time, so a burst of misses beyond the MSHR count queues up, and misses to
an already-outstanding block coalesce onto the in-flight MSHR -- the two
behaviours that shape memory-level parallelism and therefore the
head-of-ROB stall patterns the profilers must attribute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


@dataclass
class AccessResult:
    """Outcome of a cache access."""

    #: Total latency in cycles from issue until data is available.
    latency: int
    #: Name of the level that ultimately served the access.
    served_by: str
    #: True if this level hit.
    hit: bool


@dataclass
class CacheStats:
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    coalesced: int = 0
    mshr_stall_cycles: int = 0
    prefetches: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class MemoryLevel:
    """Interface for anything that can serve a memory access."""

    name = "memory"

    def access(self, addr: int, cycle: int,
               is_write: bool = False) -> AccessResult:
        raise NotImplementedError


class MainMemory(MemoryLevel):
    """DRAM modelled as fixed latency plus a bandwidth queue.

    A single FR-FCFS-like channel is approximated by a ``next_free``
    pointer: each request occupies the channel for ``cycles_per_access``
    cycles, so bursts see queueing delay on top of the base latency.
    """

    def __init__(self, latency: int = 100, cycles_per_access: int = 4,
                 name: str = "DRAM"):
        self.name = name
        self.latency = latency
        self.cycles_per_access = cycles_per_access
        self._next_free = 0
        self.accesses = 0

    def access(self, addr: int, cycle: int,
               is_write: bool = False) -> AccessResult:
        self.accesses += 1
        start = max(cycle, self._next_free)
        self._next_free = start + self.cycles_per_access
        total = (start - cycle) + self.latency
        return AccessResult(latency=total, served_by=self.name, hit=True)

    def reset(self) -> None:
        self._next_free = 0
        self.accesses = 0


@dataclass
class _Mshr:
    block: int
    ready: int


class Cache(MemoryLevel):
    """One level of set-associative, write-back, write-allocate cache."""

    def __init__(self, name: str, size: int, assoc: int,
                 block_size: int, hit_latency: int, mshrs: int,
                 next_level: MemoryLevel,
                 prefetch_next_line: bool = False):
        if size % (assoc * block_size) != 0:
            raise ValueError(f"{name}: size must be a multiple of "
                             "assoc * block_size")
        self.name = name
        self.size = size
        self.assoc = assoc
        self.block_size = block_size
        self.hit_latency = hit_latency
        self.num_mshrs = mshrs
        self.next_level = next_level
        self.prefetch_next_line = prefetch_next_line
        self.num_sets = size // (assoc * block_size)
        #: set index -> list of block numbers, most recently used last.
        self._sets: Dict[int, List[int]] = {}
        self._mshrs: List[_Mshr] = []
        self.stats = CacheStats()
        #: Every plain hit returns this one result; callers only read
        #: results.
        self._hit = AccessResult(hit_latency, name, True)

    # -- helpers --------------------------------------------------------------

    def _block_of(self, addr: int) -> int:
        return addr // self.block_size

    def _set_of(self, block: int) -> int:
        return block % self.num_sets

    def _lookup(self, block: int) -> bool:
        ways = self._sets.get(block % self.num_sets)
        if ways is not None and block in ways:
            if ways[-1] != block:  # else already most recently used
                ways.remove(block)
                ways.append(block)
            return True
        return False

    def _install(self, block: int) -> None:
        ways = self._sets.setdefault(self._set_of(block), [])
        if block in ways:
            ways.remove(block)
        elif len(ways) >= self.assoc:
            ways.pop(0)
        ways.append(block)

    def _expire_mshrs(self, cycle: int) -> None:
        self._mshrs = [m for m in self._mshrs if m.ready > cycle]

    # -- the access path ------------------------------------------------------

    def access(self, addr: int, cycle: int,
               is_write: bool = False) -> AccessResult:
        self.stats.accesses += 1
        block = addr // self.block_size
        if self._mshrs:
            self._expire_mshrs(cycle)

        if self._lookup(block):
            self.stats.hits += 1
            # A hit on a block whose fill is still in flight coalesces
            # onto the MSHR: data arrives when the fill arrives.
            for mshr in self._mshrs:
                if mshr.block == block:
                    self.stats.coalesced += 1
                    return AccessResult(
                        max(mshr.ready - cycle, self.hit_latency),
                        self.name, True)
            return self._hit

        self.stats.misses += 1

        # All MSHRs busy: the miss queues until one frees up.
        issue = cycle + self.hit_latency
        if len(self._mshrs) >= self.num_mshrs:
            earliest = min(m.ready for m in self._mshrs)
            self.stats.mshr_stall_cycles += max(0, earliest - issue)
            issue = max(issue, earliest)
            self._mshrs.remove(min(self._mshrs, key=lambda m: m.ready))

        below = self.next_level.access(addr, issue, is_write)
        ready = issue + below.latency
        self._mshrs.append(_Mshr(block, ready))
        self._install(block)

        if self.prefetch_next_line:
            # The prefetch launches when the miss is detected, so the
            # next line arrives roughly one miss-latency ahead of demand.
            self._prefetch(block + 1, issue)

        return AccessResult(ready - cycle, below.served_by, False)

    def _prefetch(self, block: int, cycle: int) -> None:
        """Next-line prefetch from the level below.

        The prefetched block occupies an MSHR until its fill arrives, so
        a demand access that lands early coalesces onto the in-flight
        fill instead of seeing instant data.  If no MSHR is free the
        prefetch is dropped, as real prefetchers do.
        """
        if self._lookup(block):
            return
        for mshr in self._mshrs:
            if mshr.block == block:
                return
        if len(self._mshrs) >= self.num_mshrs:
            return
        self.stats.prefetches += 1
        addr = block * self.block_size
        below = self.next_level.access(addr, cycle)
        self._mshrs.append(_Mshr(block, cycle + below.latency))
        self._install(block)

    def contains(self, addr: int) -> bool:
        """Non-destructive tag probe (testing/introspection)."""
        ways = self._sets.get(self._set_of(self._block_of(addr)))
        return ways is not None and self._block_of(addr) in ways

    def reset(self) -> None:
        self._sets.clear()
        self._mshrs.clear()
        self.stats = CacheStats()
