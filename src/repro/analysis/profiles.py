"""Building symbol-level profiles from samples and Oracle attributions.

This is the perf-style post-processing step of Section 3.1: every sample
contributes ``interval * fraction`` to each symbol it names, and profiles
are normalised by total time so they can be compared across profilers.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Hashable, Iterable, List, Tuple

from ..core.oracle import OracleReport
from ..core.samples import Sample
from .symbols import Granularity, Symbolizer


def build_profile(samples: Iterable[Sample], symbolizer: Symbolizer,
                  granularity: Granularity) -> Dict[Hashable, float]:
    """Aggregate samples into a symbol -> time profile."""
    table = symbolizer.table(granularity)
    profile: Dict[Hashable, float] = {}
    for sample in samples:
        for addr, fraction in sample.weights:
            sym = table[addr]
            profile[sym] = profile.get(sym, 0.0) + sample.interval * fraction
    return profile


def oracle_profile(oracle: OracleReport, symbolizer: Symbolizer,
                   granularity: Granularity) -> Dict[Hashable, float]:
    """The Oracle's exact symbol -> time profile."""
    table = symbolizer.table(granularity)
    profile: Dict[Hashable, float] = {}
    for addr, cycles in oracle.profile.items():
        sym = table[addr]
        profile[sym] = profile.get(sym, 0.0) + cycles
    return profile


def normalize(profile: Dict[Hashable, float]) -> Dict[Hashable, float]:
    """Scale a profile so its values sum to 1."""
    total = sum(profile.values())
    if not total:
        return {}
    return {sym: value / total for sym, value in profile.items()}


def profile_checksum(samples: Iterable[Sample]) -> str:
    """Stable hex digest of a profiler's raw sample stream.

    Covers cycle, interval, category and the exact attribution weights
    (via ``repr``, which round-trips floats), so two sample lists hash
    equal iff they are bit-identical.  Used to assert that replayed,
    pooled, cached and fast-path runs equal the reference run.
    """
    digest = hashlib.sha256()
    for sample in samples:
        category = None if sample.category is None \
            else sample.category.value
        digest.update(repr((sample.cycle, sample.interval,
                            tuple(sample.weights),
                            category)).encode())
    return digest.hexdigest()


def top_symbols(profile: Dict[Hashable, float],
                count: int = 10) -> List[Tuple[Hashable, float]]:
    """The *count* hottest symbols, hottest first."""
    ranked = sorted(profile.items(), key=lambda item: item[1], reverse=True)
    return ranked[:count]
