"""Multi-core profiling sessions (Section 3.2, "Multi-threading").

The paper notes that TIP extends to multi-threaded systems without
changes to the attribution policy: perf tags every sample with core,
process and thread identifiers, and each physical core carries its own
TIP unit.  This module models exactly that: one :class:`CoreSession`
per simulated core (its own machine, Oracle and TIP), and a
:class:`MulticoreSession` that merges the per-core sample streams into
system-wide profiles keyed by ``(core, symbol)`` or aggregated across
cores for shared binaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence

from ..analysis.profiles import build_profile, normalize
from ..analysis.symbols import Granularity, Symbolizer
from ..core.oracle import OracleProfiler
from ..core.sampling import SampleSchedule
from ..core.tip import TipProfiler
from ..cpu.config import CoreConfig
from ..cpu.machine import Machine
from ..workloads.generator import Workload


@dataclass
class CoreSession:
    """One core's run: machine, TIP profiler and Oracle reference."""

    core_id: int
    workload: Workload
    machine: Machine
    tip: TipProfiler
    oracle: OracleProfiler

    @property
    def cycles(self) -> int:
        return self.machine.stats.cycles


class MulticoreSession:
    """Profile several cores, each running its own workload.

    Every core gets a private TIP unit (as the paper requires) sampling
    on the same schedule parameters; the merged profile weights each
    core's samples by the time they represent, so a system-wide profile
    falls out exactly like merging per-CPU perf buffers.
    """

    def __init__(self, workloads: Sequence[Workload], period: int = 97,
                 config: Optional[CoreConfig] = None,
                 mode: str = "periodic", seed: int = 0):
        if not workloads:
            raise ValueError("need at least one core workload")
        self.period = period
        self.sessions: List[CoreSession] = []
        for core_id, workload in enumerate(workloads):
            machine = Machine(workload.program, config,
                              premapped_data=workload.premapped)
            tip = TipProfiler(SampleSchedule(period, mode, seed),
                              machine.image)
            oracle = OracleProfiler(machine.image)
            machine.attach(oracle)
            machine.attach(tip)
            self.sessions.append(
                CoreSession(core_id, workload, machine, tip, oracle))

    def run(self, max_cycles: int = 10_000_000) -> "MulticoreSession":
        for session in self.sessions:
            session.machine.run(max_cycles)
        return self

    # -- merged views ---------------------------------------------------------

    def per_core_profiles(self, granularity: Granularity =
                          Granularity.FUNCTION
                          ) -> Dict[int, Dict[Hashable, float]]:
        """core id -> normalised profile of that core."""
        out = {}
        for session in self.sessions:
            symbolizer = Symbolizer(session.machine.image)
            out[session.core_id] = normalize(build_profile(
                session.tip.samples, symbolizer, granularity))
        return out

    def system_profile(self, granularity: Granularity =
                       Granularity.FUNCTION,
                       tag_core: bool = True
                       ) -> Dict[Hashable, float]:
        """System-wide normalised profile.

        With *tag_core* symbols are ``(core, symbol)`` pairs (distinct
        processes); without it equal symbols merge across cores (shared
        binary / multi-threaded process).
        """
        profile: Dict[Hashable, float] = {}
        for session in self.sessions:
            table = Symbolizer(session.machine.image).table(granularity)
            for sample in session.tip.samples:
                for addr, fraction in sample.weights:
                    sym = table[addr]
                    key = (session.core_id, sym) if tag_core else sym
                    profile[key] = profile.get(key, 0.0) \
                        + sample.interval * fraction
        return normalize(profile)

    @property
    def total_cycles(self) -> int:
        return sum(session.cycles for session in self.sessions)
