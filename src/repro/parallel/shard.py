"""Sharded out-of-band replay of chunk-indexed v3 traces.

The paper's evaluation records the commit-stage trace once and models
every profiler over it out-of-band.  Serial replay of that trace is the
dominant wall-clock cost of re-profiling; this module splits a
chunk-indexed trace at chunk boundaries, replays each shard in a worker
process, and merges the per-shard profiler snapshots into results that
are **bit-identical to a serial replay** for every sampling profiler:

* each chunk header carries the machine state (OIR mirror, last
  committed address) a profiler needs to cold-start at the boundary;
* sample schedules are deterministic, so a worker fast-forwards its
  schedules to the shard's first cycle and samples the exact cycles a
  serial replay would;
* a sample still pending at the shard's end resolves against the
  *run-over* records that follow the shard -- the same records, and
  therefore the same outcome, a serial replay would use;
* merging concatenates per-shard sample lists in shard order.

The Oracle is exact too: shards snapshot integer attribution counts,
which add in any order, and the merged report's floats are computed
once, after the merge (``docs/parallel.md``).

Degradation is automatic: single-chunk traces, non-shardable profilers
(Software with skid) and worker failures all fall back to a serial
in-process replay.  Legacy v1/v2 traces are rejected with a
:class:`ValueError` that names ``repro convert-trace``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.oracle import OracleProfiler, OracleReport
from ..core.profiler import SamplingProfiler
from ..core.sampling import SampleSchedule
from ..cpu.tracefile import TraceIndex, open_reader, read_index
from ..fastpath.engine import replay_blocks
from ..isa.program import Program
from ..lint.sanitizer import TraceInvariantError, TraceSanitizer
from .pool import PoolJob, run_jobs

#: A trace source workers can open independently: a path or raw bytes.
TraceSource = Union[str, bytes]


@dataclass(frozen=True)
class ProgramSpec:
    """Recipe for rebuilding the linked program image in a worker.

    A spec is a few fields where an image can be megabytes, and the
    image it names is deterministic to rebuild.
    """

    kind: str  # "asm" | "workload" | "imagick"
    source: str = ""  # assembly text, or the benchmark name
    name: str = "program"
    scale: float = 1.0
    optimized: bool = False
    premap_all: bool = False

    def build_image(self) -> Program:
        from ..kernel import Kernel
        if self.kind == "asm":
            from ..isa import assemble
            program = assemble(self.source, name=self.name)
        elif self.kind == "workload":
            from ..workloads.suite import build
            program = build(self.source, self.scale).program
        elif self.kind == "imagick":
            from ..workloads.imagick import build_imagick
            program = build_imagick(optimized=self.optimized).program
        else:
            raise ValueError(f"unknown program spec kind {self.kind!r}")
        return Kernel().link(program)


@dataclass
class ReplayOutcome:
    """Merged result of a (serial or sharded) trace replay."""

    profilers: Dict[str, SamplingProfiler]
    oracle: OracleReport
    cycles: int
    sanitizer: Optional[TraceSanitizer] = None
    #: "serial" or "sharded"; sharded runs record the shard count.
    mode: str = "serial"
    shards: int = 1
    #: Why a sharded request fell back to serial (None if it did not).
    fallback_reason: Optional[str] = None


def plan_shards(index: TraceIndex, jobs: int) -> List[Tuple[int, int]]:
    """Split the chunk list into contiguous ``[lo, hi)`` shard ranges.

    Ranges are balanced by record count; at most ``min(jobs, chunks)``
    shards, all non-empty.
    """
    chunks = index.chunks
    if not chunks:
        return []
    shards = max(1, min(jobs, len(chunks)))
    total = index.total_records
    bounds: List[Tuple[int, int]] = []
    lo = 0
    acc = 0
    for shard in range(shards):
        target = total * (shard + 1) / shards
        hi = lo
        while hi < len(chunks) and (acc < target or hi == lo):
            acc += chunks[hi].n_records
            hi += 1
        remaining_shards = shards - shard - 1
        hi = min(hi, len(chunks) - remaining_shards)
        hi = max(hi, lo + 1)
        bounds.append((lo, hi))
        lo = hi
        if lo >= len(chunks):
            break
    if bounds and bounds[-1][1] < len(chunks):
        bounds[-1] = (bounds[-1][0], len(chunks))
    return bounds


def _build_observers(image: Program,
                     configs: Sequence,
                     watch_keys: Sequence[Tuple[int, str, int]],
                     sanitize: bool):
    """(profilers dict, oracle, sanitizer) for one replay pass."""
    profilers: Dict[str, SamplingProfiler] = {}
    for config in configs:
        if config.name in profilers:
            raise ValueError(
                f"duplicate profiler label {config.name!r}")
        profilers[config.name] = config.build(image)
    oracle = OracleProfiler(
        image, watch_schedules=[SampleSchedule(*key)
                                for key in watch_keys])
    sanitizer = TraceSanitizer(program=image) if sanitize else None
    return profilers, oracle, sanitizer


def replay_shard(trace: TraceSource, lo: int, hi: int,
                 spec: ProgramSpec, configs: Sequence,
                 watch_keys: Sequence[Tuple[int, str, int]] = (),
                 sanitize: bool = False) -> dict:
    """Replay chunks ``[lo, hi)`` of *trace*; returns a snapshot dict.

    This is the worker-side entry point: it rebuilds the program image,
    cold-starts every observer from the first chunk's carried state,
    replays the shard, and resolves trailing pending samples against
    run-over records.  The returned dict is picklable.

    The trace is opened **once** and mapped; each chunk becomes a
    columnar block over the stored columns that all observers share,
    so forked shard workers mapping the same path share physical
    pages.
    """
    image = spec.build_image()
    profilers, oracle, sanitizer = _build_observers(
        image, configs, watch_keys, sanitize)
    observers = list(profilers.values()) + [oracle]
    if sanitizer is not None:
        observers.append(sanitizer)

    with open_reader(trace) as reader:
        chunks = reader.index.chunks
        if not 0 <= lo < hi <= len(chunks):
            raise ValueError(f"shard [{lo}, {hi}) out of range")
        start_cycle = chunks[lo].start_cycle
        carry = chunks[lo].carry
        for observer in observers:
            observer.begin_shard(start_cycle, carry)

        try:
            for chunk in chunks[lo:hi]:
                block = reader.chunk_block(chunk)
                for observer in observers:
                    observer.on_block(block)
            # Run-over: resolve pendings against the records that follow
            # the shard (the next shard replays them as its own; here
            # they are only consulted, never attributed).
            unsettled = [ob for ob in observers
                         if not ob.shard_settled()]
            for chunk in chunks[hi:]:
                if not unsettled:
                    break
                for record in reader.chunk_records(chunk):
                    unsettled = [ob for ob in unsettled
                                 if not ob.resolve_only(record)]
                    if not unsettled:
                        break
        except TraceInvariantError as exc:
            # Surface sanitizer violations as data, not a worker crash.
            return {
                "invariant_violation": exc.diagnostic,
                "sanitizer": sanitizer.snapshot() if sanitizer else None,
            }

    return {
        "profilers": {name: profiler.snapshot()
                      for name, profiler in profilers.items()},
        "oracle": oracle.snapshot(),
        "sanitizer": sanitizer.snapshot() if sanitizer else None,
    }


def replay_serial(trace: TraceSource, image: Program,
                  configs: Sequence,
                  watch_keys: Sequence[Tuple[int, str, int]] = (),
                  sanitize: bool = False) -> ReplayOutcome:
    """One-process block replay (also the fallback path)."""
    profilers, oracle, sanitizer = _build_observers(
        image, configs, watch_keys, sanitize)
    observers = list(profilers.values()) + [oracle]
    if sanitizer is not None:
        observers.append(sanitizer)
    cycles = replay_blocks(trace, *observers)
    oracle.report.total_cycles = cycles
    return ReplayOutcome(profilers, oracle.report, cycles, sanitizer,
                         mode="serial", shards=1)


def replay_sharded(trace: TraceSource, spec: ProgramSpec,
                   configs: Sequence,
                   jobs: int,
                   watch_keys: Sequence[Tuple[int, str, int]] = (),
                   sanitize: bool = False,
                   image: Optional[Program] = None,
                   timeout: Optional[float] = None,
                   retries: int = 1,
                   verbose: bool = False) -> ReplayOutcome:
    """Replay *trace* with *jobs* parallel shard workers and merge.

    Produces bit-identical profiler samples versus
    :func:`replay_serial`; falls back to serial (with
    ``fallback_reason`` set) whenever sharding is not applicable or a
    worker fails.  Raises :class:`ValueError` for a source that is not
    a v3 trace.
    """
    if image is None:
        image = spec.build_image()

    def fallback(reason: str) -> ReplayOutcome:
        if verbose:
            print(f"[shard] falling back to serial replay: {reason}",
                  flush=True)
        outcome = replay_serial(trace, image, configs, watch_keys,
                                sanitize)
        outcome.fallback_reason = reason
        return outcome

    if jobs <= 1:
        return fallback("jobs <= 1")
    probe_profilers, _, _ = _build_observers(image, configs, (), False)
    unshardable = [name for name, profiler in probe_profilers.items()
                   if not profiler.shardable]
    if unshardable:
        return fallback(
            "non-shardable profiler(s): " + ", ".join(unshardable))
    index = read_index(trace)
    if len(index.chunks) < 2:
        return fallback("trace has fewer than 2 chunks")

    bounds = plan_shards(index, jobs)
    pool_jobs = [
        PoolJob(name=f"shard{position}", func=replay_shard,
                args=(trace, lo, hi, spec, tuple(configs),
                      tuple(watch_keys), sanitize),
                timeout=timeout)
        for position, (lo, hi) in enumerate(bounds)
    ]
    report = run_jobs(pool_jobs, workers=jobs, retries=retries,
                      verbose=verbose)
    if report.failures:
        return fallback("worker failure: " + "; ".join(
            str(failure) for failure in report.failures.values()))

    snapshots = [report.results[f"shard{position}"]
                 for position in range(len(bounds))]
    for snap in snapshots:
        if "invariant_violation" in snap:
            raise TraceInvariantError(snap["invariant_violation"])

    cycles = index.total_records
    profilers, oracle, sanitizer = _build_observers(
        image, configs, (), sanitize)
    for name, profiler in profilers.items():
        profiler.restore_snapshots(
            [snap["profilers"][name] for snap in snapshots])
    oracle.absorb([snap["oracle"] for snap in snapshots], cycles)
    oracle_report = oracle.report
    if sanitizer is not None:
        sanitizer.absorb([snap["sanitizer"] for snap in snapshots])
    return ReplayOutcome(profilers, oracle_report, cycles, sanitizer,
                         mode="sharded", shards=len(bounds))
