"""Parallel suite runner: one simulation per benchmark, many workers.

Each workload the simulation cache cannot answer is simulated in its
own worker process (the paper's record phase is embarrassingly
parallel across benchmarks).  The parent links every workload once;
with a cache it also keys and looks each one up, and replays every hit
in-process through the same path a serial run takes
(:func:`~repro.harness.experiment.replay_cached`), so a hit costs what
it costs serially and an all-hit run starts no worker.  Workers take
the parent's built :class:`~repro.workloads.generator.Workload`: a
forked worker inherits it and a spawned one unpickles it, so no worker
rebuilds or re-checks a program, and any workload -- suite benchmark or
not -- runs in the pool.  Workers record into the parent's
:class:`~repro.simfast.SimCache`, size budget included, and ship back
picklable payloads -- the Oracle report, core statistics and
per-profiler sample snapshots -- and the parent rebuilds full
:class:`~repro.harness.experiment.ExperimentResult` objects around the
linked image, so downstream analysis (error tables, cycle stacks) is
unchanged.

When the pool degrades every miss runs serially in the parent.  A
worker that raises, hangs or dies is retried and finally reported in
``SuiteResult.failures`` without disturbing the other benchmarks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from ..cpu.config import CoreConfig
from ..harness.experiment import (ExperimentResult, ProfilerConfig,
                                  replay_cached)
from ..isa.program import Program
from ..kernel import Kernel
from ..lint.sanitizer import TraceInvariantError, TraceSanitizer
from ..workloads.generator import Workload
from .pool import JobFailure, PoolJob, run_jobs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..simfast.cache import SimCache

#: Default per-benchmark wall-clock budget (seconds) in pool mode.
DEFAULT_JOB_TIMEOUT = 600.0


def simulate_benchmark(workload: Workload,
                       configs: Tuple[ProfilerConfig, ...],
                       max_cycles: int,
                       sanitize: bool,
                       sim: str = "step",
                       cache: Optional[SimCache] = None,
                       paranoid: bool = False) -> dict:
    """Worker entry: simulate one built workload.

    Returns a picklable payload (:func:`result_payload`).  *sim* and
    *paranoid* select the simulation fast path and its cross-check, and
    *cache* the content-addressed simulation cache; it is the parent's
    :class:`SimCache`, so the worker records under the parent's root
    and size budget.
    """
    from ..cpu.core import MaxCyclesExceeded
    from ..harness.runner import run_workload
    try:
        result = run_workload(workload, configs, max_cycles,
                              sanitize=sanitize, sim=sim,
                              paranoid=paranoid, cache=cache)
    except TraceInvariantError as exc:
        return {"invariant_violation": exc.diagnostic}
    except MaxCyclesExceeded as exc:
        return {"max_cycles_exceeded": str(exc)}
    return result_payload(result)


def result_payload(result: ExperimentResult) -> dict:
    """Picklable payload for rebuilding a full ExperimentResult in
    another process (:func:`rebuild_result`)."""
    return {
        "oracle": result.oracle,
        "stats": result.stats,
        "cached": result.cached,
        "profilers": {label: profiler.snapshot()
                      for label, profiler in result.profilers.items()},
        "sanitizer": (result.sanitizer.snapshot()
                      if result.sanitizer is not None else None),
    }


def rebuild_result(workload: Workload,
                   configs: Sequence[ProfilerConfig],
                   payload: dict,
                   image: Optional[Program] = None) -> ExperimentResult:
    """Reconstruct an ExperimentResult from a worker payload.

    The payload (:func:`result_payload`) comes from
    :func:`simulate_benchmark` or the job server's workers: the Oracle
    report, core statistics and per-profiler snapshots, rebuilt around
    the linked image (*image*, linked here when not given) so
    downstream analysis is unchanged and bit-identical.
    """
    if "invariant_violation" in payload:
        raise TraceInvariantError(payload["invariant_violation"])
    if image is None:
        image = Kernel().link(workload.program)
    profilers = {}
    for config in configs:
        profiler = config.build(image)
        profiler.restore(payload["profilers"][config.name])
        profilers[config.name] = profiler
    sanitizer = None
    if payload["sanitizer"] is not None:
        sanitizer = TraceSanitizer(program=image)
        sanitizer.absorb(payload["sanitizer"])
    result = ExperimentResult(image, payload["oracle"], profilers,
                              payload["stats"], sanitizer=sanitizer)
    result.cached = payload.get("cached", False)
    return result


def run_suite_parallel(workloads: Sequence[Workload],
                       profilers: Sequence[ProfilerConfig],
                       jobs: int,
                       max_cycles: int = 10_000_000,
                       sanitize: bool = False,
                       timeout: Optional[float] = DEFAULT_JOB_TIMEOUT,
                       retries: int = 1,
                       verbose: bool = False,
                       sim: str = "step",
                       cache: Optional[SimCache] = None,
                       paranoid: bool = False):
    """Simulate *workloads* on up to *jobs* worker processes.

    Returns a :class:`~repro.harness.runner.SuiteResult` in input
    order; benchmarks whose worker failed (after retries) appear in
    ``failures`` instead of ``results``.  With a *cache* every hit is
    replayed here and only misses reach the pool.  *sim*, *paranoid*
    and *cache* forward the simulation fast path, its cross-check and
    the cache to every worker; a benchmark that exhausts *max_cycles*
    lands in ``failures`` with kind ``"max-cycles"``.
    """
    from ..harness.runner import SuiteResult

    configs = tuple(profilers)
    config = CoreConfig.boom_4wide()
    results: Dict[str, ExperimentResult] = {}
    misses: Dict[str, Tuple[Workload, Program]] = {}
    for workload in workloads:
        image = Kernel().link(workload.program)
        if cache is not None:
            key = cache.key_for(image, config, premapped=workload.premapped)
            hit = replay_cached(image, configs, config, cache, key,
                                max_cycles, sanitize)
            if hit is not None:
                results[workload.name] = hit
                continue
        misses[workload.name] = workload, image

    failures: Dict[str, JobFailure] = {}
    if misses:
        pool_jobs = [
            PoolJob(name=name, func=simulate_benchmark,
                    args=(workload, configs, max_cycles, sanitize, sim,
                          cache, paranoid),
                    timeout=timeout)
            for name, (workload, _image) in misses.items()]
        if verbose:
            print(f"[suite] {len(pool_jobs)} benchmark(s) on "
                  f"{min(jobs, len(pool_jobs))} worker(s)", flush=True)
        report = run_jobs(pool_jobs, workers=jobs, retries=retries,
                          verbose=verbose)
        failures.update(report.failures)
        for name, payload in report.results.items():
            if "max_cycles_exceeded" in payload:
                failures[name] = JobFailure(
                    name, "max-cycles", 1, payload["max_cycles_exceeded"])
                continue
            workload, image = misses[name]
            results[name] = rebuild_result(workload, configs, payload,
                                           image)
    ordered = {workload.name: results[workload.name]
               for workload in workloads if workload.name in results}
    return SuiteResult(ordered, failures=failures)
