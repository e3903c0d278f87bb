"""Experiment driver: one simulation, many out-of-band profilers.

Exactly like the paper's methodology, a single simulation run drives the
Oracle plus any number of practical profiler configurations.  All
profilers constructed with equal sampling parameters fire on the *exact
same cycles*, so error differences between them are purely systematic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..analysis.cyclestacks import CycleStack, cycle_stack, per_symbol_stacks
from ..analysis.error import profile_errors
from ..analysis.profiles import build_profile, normalize, oracle_profile
from ..analysis.symbols import Granularity, Symbolizer
from ..core.baselines import (DispatchProfiler, LciProfiler, NciIlpProfiler,
                              NciProfiler, SoftwareProfiler)
from ..core.oracle import OracleProfiler, OracleReport
from ..core.profiler import SamplingProfiler
from ..core.sampling import SampleSchedule
from ..core.tip import TipIlpProfiler, TipProfiler
from ..cpu.config import CoreConfig
from ..cpu.core import CoreStats
from ..cpu.machine import Machine
from ..isa.program import Program
from ..kernel import Kernel
from ..lint.sanitizer import TraceInvariantError, TraceSanitizer

#: Policy name -> constructor(schedule, program).
POLICIES = {
    "Software": lambda schedule, program: SoftwareProfiler(schedule),
    "Dispatch": lambda schedule, program: DispatchProfiler(schedule),
    "LCI": lambda schedule, program: LciProfiler(schedule),
    "NCI": lambda schedule, program: NciProfiler(schedule),
    "NCI+ILP": lambda schedule, program: NciIlpProfiler(schedule),
    "TIP-ILP": TipIlpProfiler,
    "TIP": TipProfiler,
}

#: The profiler line-up of the paper's Section 5 comparison.
ALL_POLICIES = ("Software", "Dispatch", "LCI", "NCI", "TIP-ILP", "TIP")


@dataclass(frozen=True)
class ProfilerConfig:
    """One profiler configuration attached to an experiment."""

    policy: str
    period: int
    mode: str = "periodic"
    seed: int = 0
    label: Optional[str] = None

    @property
    def name(self) -> str:
        return self.label or self.policy

    def build(self, program: Program) -> SamplingProfiler:
        if self.policy not in POLICIES:
            raise ValueError(f"unknown profiler policy {self.policy!r}")
        schedule = SampleSchedule(self.period, self.mode, self.seed)
        return POLICIES[self.policy](schedule, program)

    def schedule_clone(self) -> SampleSchedule:
        return SampleSchedule(self.period, self.mode, self.seed)


class ExperimentResult:
    """Profilers, Oracle report and statistics of one run."""

    def __init__(self, program: Program, oracle: OracleReport,
                 profilers: Dict[str, SamplingProfiler],
                 stats: Optional[CoreStats],
                 sanitizer: Optional["TraceSanitizer"] = None):
        self.program = program
        self.oracle = oracle
        self.profilers = profilers
        #: Simulation statistics; ``None`` for trace replays (the
        #: simulator never ran).
        self.stats = stats
        #: The trace sanitizer attached to the run (``sanitize=True``).
        self.sanitizer = sanitizer
        #: True when the profilers were fed from a simulation-cache hit
        #: (block replay of the cached trace) instead of a live
        #: simulation.  Results are bit-identical either way.
        self.cached = False
        self.symbolizer = Symbolizer(program)

    # -- errors -------------------------------------------------------------------

    def error(self, name: str,
              granularity: Granularity = Granularity.INSTRUCTION) -> float:
        return self.errors(granularity, (name,))[name]

    def errors(self, granularity: Granularity = Granularity.INSTRUCTION,
               names: Optional[Sequence[str]] = None) -> Dict[str, float]:
        """Label -> error of the profilers labelled *names* (default:
        all, in attachment order), from one Oracle distribution."""
        profilers = self.profilers if names is None else \
            {name: self.profilers[name] for name in names}
        return profile_errors(profilers, self.oracle, self.symbolizer,
                              granularity)

    # -- profiles ------------------------------------------------------------------

    def profile(self, name: str,
                granularity: Granularity = Granularity.INSTRUCTION,
                normalized: bool = True) -> Dict[Hashable, float]:
        profiler = self.profilers[name]
        profile = build_profile(profiler.samples, self.symbolizer,
                                granularity)
        return normalize(profile) if normalized else profile

    def oracle_profile(self,
                       granularity: Granularity = Granularity.INSTRUCTION,
                       normalized: bool = True) -> Dict[Hashable, float]:
        profile = oracle_profile(self.oracle, self.symbolizer, granularity)
        return normalize(profile) if normalized else profile

    # -- cycle stacks ---------------------------------------------------------------

    def cycle_stack(self) -> CycleStack:
        return cycle_stack(self.oracle)

    def function_stacks(self) -> Dict[Hashable, CycleStack]:
        return per_symbol_stacks(self.oracle, self.symbolizer,
                                 Granularity.FUNCTION)


def _observers(image: Program, profilers: Sequence[ProfilerConfig],
               config: Optional[CoreConfig], sanitize: bool):
    """Fresh (sanitizer or ``None``, Oracle, label -> profiler) for one
    run of *image*.  Without a *config* the sanitizer infers commit
    width and bank count from the trace."""
    sanitizer = None
    if sanitize and config is None:
        sanitizer = TraceSanitizer(program=image)
    elif sanitize:
        sanitizer = TraceSanitizer(program=image,
                                   commit_width=config.commit_width,
                                   banks=config.rob_banks)
    # Every report reads the whole-run attribution, so the Oracle
    # watches no schedule; per-sample errors need a caller's own
    # ``OracleProfiler(image, watch_schedules=[...])``.
    oracle = OracleProfiler(image)
    built: Dict[str, SamplingProfiler] = {}
    for profiler_config in profilers:
        if profiler_config.name in built:
            raise ValueError(
                f"duplicate profiler label {profiler_config.name!r}")
        built[profiler_config.name] = profiler_config.build(image)
    return sanitizer, oracle, built


def replay_cached(image: Program, profilers: Sequence[ProfilerConfig],
                  config: CoreConfig, sim_cache, key: str,
                  max_cycles: int,
                  sanitize: bool) -> Optional[ExperimentResult]:
    """The cached result of the run keyed *key*, or ``None`` (miss).

    Looks *key* up in *sim_cache* (a :class:`~repro.simfast.SimCache`)
    and, on a hit, replays the cached columnar (v3) trace zero-copy
    into fresh observers of the linked *image*, one block per chunk; no
    kernel boots.  An entry that passes its checksum but does not decode
    is evicted with a :class:`~repro.simfast.CacheCorruptionWarning`
    and counts as a miss.  :func:`run_experiment` and pooled suite runs
    (which look up in the parent) share this path.
    """
    from ..fastpath.engine import replay_with_engine
    hit = sim_cache.lookup(key, max_cycles)
    if hit is None:
        return None
    sanitizer, oracle, built = _observers(image, profilers, config,
                                          sanitize)
    try:
        replay_with_engine(
            hit.trace_path,
            ([sanitizer] if sanitizer is not None else [])
            + [oracle] + list(built.values()))
    except (TraceInvariantError, MemoryError):
        raise
    except Exception as exc:
        # The entry passed its checksum but does not decode (foreign
        # producer, consistent tampering, or the entry was swapped
        # underneath us after verification).  Evict it and warn; the
        # caller re-simulates with pristine observers -- never a bare
        # traceback.
        import warnings

        from ..simfast.cache import CacheCorruptionWarning
        sim_cache.evict(key)
        warnings.warn(
            f"evicted corrupt simulation-cache entry "
            f"{key[:12]}... ({exc}); re-simulating",
            CacheCorruptionWarning, stacklevel=3)
        return None
    # Replay reports the last record's cycle; the simulator reports the
    # cycle after it (same fixup as replay_experiment).
    oracle.report.total_cycles = hit.stats.cycles
    result = ExperimentResult(image, oracle.report, built, hit.stats,
                              sanitizer=sanitizer)
    result.cached = True
    return result


def run_experiment(program: Program,
                   profilers: Sequence[ProfilerConfig],
                   config: Optional[CoreConfig] = None,
                   premapped_data: Optional[List[Tuple[int, int]]] = None,
                   max_cycles: int = 10_000_000,
                   sanitize: bool = False,
                   sim: str = "step",
                   paranoid: bool = False,
                   cache=None) -> ExperimentResult:
    """Simulate *program* once with all *profilers* attached out-of-band.

    With *sanitize* a :class:`~repro.lint.TraceSanitizer` validates the
    commit trace against the invariants every profiler depends on,
    raising :class:`~repro.lint.TraceInvariantError` on the first
    violation.  Every observer attaches to the machine directly.

    ``sim="fast"`` turns on the event-driven stall fast-forward inside
    the core (*paranoid* cross-checks every fast-forwarded region
    against single-stepping); *cache* enables the content-addressed
    simulation cache (``True`` for the default root, a path, or a
    :class:`~repro.simfast.SimCache`).  The run links its image once
    and keys it before it builds a machine.  On a hit the profilers
    replay the cached trace (:func:`replay_cached`) and
    ``result.cached`` is set; no kernel boots.  On a miss the same
    image is booted and the run records into the cache.
    Traces, reports and stats are bit-identical across all paths.

    Raises :class:`~repro.cpu.core.MaxCyclesExceeded` when the budget
    runs out; such runs are never cached.
    """
    from ..simfast.cache import resolve_cache
    config = config or CoreConfig.boom_4wide()
    image = Kernel().link(program)
    sim_cache = resolve_cache(cache)
    key = None
    if sim_cache is not None:
        # Keyed and looked up before any machine exists: a hit boots no
        # kernel, builds no memory hierarchy and copies no data image.
        key = sim_cache.key_for(image, config, premapped=premapped_data)
        result = replay_cached(image, profilers, config, sim_cache, key,
                               max_cycles, sanitize)
        if result is not None:
            return result

    sanitizer, oracle, built = _observers(image, profilers, config,
                                          sanitize)
    machine = Machine(program, config, premapped_data, image=image)
    if sanitizer is not None:
        machine.attach(sanitizer)
    machine.attach(oracle)
    for profiler in built.values():
        machine.attach(profiler)

    writer = None
    if sim_cache is not None:
        writer = sim_cache.open_writer(key, config.rob_banks)
        machine.attach(writer)
    try:
        stats = machine.run(max_cycles, sim=sim, paranoid=paranoid)
    except BaseException:
        if writer is not None:
            writer.abort()  # incomplete runs are never cached
        raise
    if writer is not None:
        sim_cache.commit(key, stats, program_name=image.name or "")
    return ExperimentResult(image, oracle.report, built, stats,
                            sanitizer=sanitizer)


def replay_experiment(trace, image: Program,
                      profilers: Sequence[ProfilerConfig],
                      sanitize: bool = False) -> ExperimentResult:
    """Re-profile a recorded trace out-of-band (no re-simulation).

    The trace is read **once** no matter how many profilers are
    configured: every profiler, the Oracle and (with *sanitize*) a
    single :class:`~repro.lint.TraceSanitizer` observe the same pass.
    Attaching the sanitizer per profiler pass would both re-read the
    trace N times and multiply its cycle counts by N; ``cycles_checked``
    equals the trace length exactly.  The sanitizer infers commit width
    and bank count from the trace.

    *trace* must be a v3 trace; each chunk becomes a columnar
    :class:`~repro.fastpath.CycleBlock` that every observer shares.
    Legacy v1/v2 traces raise :class:`ValueError` (upgrade them with
    ``repro convert-trace``).

    ``result.stats`` is ``None`` -- the simulator never ran -- and
    ``result.oracle.total_cycles`` is the trace length.
    """
    from ..fastpath.engine import replay_blocks
    sanitizer, oracle, built = _observers(image, profilers, None,
                                          sanitize)
    cycles = replay_blocks(
        trace, *built.values(), oracle,
        *([sanitizer] if sanitizer is not None else []))
    # Replay reports the last record's cycle; a simulation reports the
    # cycle after it.
    oracle.report.total_cycles = cycles
    return ExperimentResult(image, oracle.report, built, stats=None,
                            sanitizer=sanitizer)


def default_profilers(period: int, mode: str = "periodic", seed: int = 0,
                      policies: Sequence[str] = ALL_POLICIES
                      ) -> List[ProfilerConfig]:
    """The standard line-up, all sampling on the same cycles."""
    return [ProfilerConfig(policy, period, mode, seed)
            for policy in policies]
