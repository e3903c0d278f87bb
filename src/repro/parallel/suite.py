"""Parallel suite runner: one simulation per benchmark, many workers.

Each workload is simulated in its own worker process (the paper's
record phase is embarrassingly parallel across benchmarks).  Workers
take the parent's built :class:`~repro.workloads.generator.Workload`:
a forked worker inherits it and a spawned one unpickles it, so no
worker rebuilds or re-checks a program, and any workload -- suite
benchmark or not -- runs in the pool.  Workers ship back picklable
payloads -- the Oracle report, core statistics and per-profiler sample
snapshots -- and the parent rebuilds full
:class:`~repro.harness.experiment.ExperimentResult` objects around the
linked image, so downstream analysis (error tables, cycle stacks) is
unchanged.

When the pool degrades every workload runs serially in the parent.  A
worker that raises, hangs or dies is retried and finally reported in
``SuiteResult.failures`` without disturbing the other benchmarks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..harness.experiment import ExperimentResult, ProfilerConfig
from ..lint.sanitizer import TraceInvariantError, TraceSanitizer
from ..workloads.generator import Workload
from .pool import JobFailure, PoolJob, run_jobs

#: Default per-benchmark wall-clock budget (seconds) in pool mode.
DEFAULT_JOB_TIMEOUT = 600.0


def simulate_benchmark(workload: Workload,
                       configs: Tuple[ProfilerConfig, ...],
                       max_cycles: int,
                       sanitize: bool,
                       sim: str = "step",
                       cache_dir: Optional[str] = None) -> dict:
    """Worker entry: simulate one built workload.

    Returns a picklable payload (:func:`result_payload`).  *sim*
    selects the simulation fast path and *cache_dir* (a plain path,
    picklable) the content-addressed simulation cache.
    """
    from ..cpu.core import MaxCyclesExceeded
    from ..harness.runner import run_workload
    try:
        result = run_workload(workload, configs, max_cycles,
                              sanitize=sanitize, sim=sim,
                              cache=cache_dir)
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
                   payload: dict) -> ExperimentResult:
    """Reconstruct an ExperimentResult from a worker payload.

    The payload (:func:`result_payload`) comes from
    :func:`simulate_benchmark` or the job server's workers: the Oracle
    report, core statistics and per-profiler snapshots, rebuilt around
    the linked image so downstream analysis is unchanged and
    bit-identical.
    """
    if "invariant_violation" in payload:
        raise TraceInvariantError(payload["invariant_violation"])
    from ..kernel import Kernel
    image = Kernel().link(workload.program)
    profilers = {}
    for config in configs:
        profiler = config.build(image)
        profiler.restore_snapshots([payload["profilers"][config.name]])
        profilers[config.name] = profiler
    sanitizer = None
    if payload["sanitizer"] is not None:
        sanitizer = TraceSanitizer(program=image)
        sanitizer.absorb([payload["sanitizer"]])
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
                       cache_dir: Optional[str] = None):
    """Simulate *workloads* on up to *jobs* worker processes.

    Returns a :class:`~repro.harness.runner.SuiteResult`; benchmarks
    whose worker failed (after retries) appear in ``failures`` instead
    of ``results``.  *sim* and *cache_dir* forward the simulation fast
    path and cache root to every worker; a benchmark that exhausts
    *max_cycles* lands in ``failures`` with kind ``"max-cycles"``.
    """
    from ..harness.runner import SuiteResult

    configs = tuple(profilers)
    pool_jobs: List[PoolJob] = [
        PoolJob(name=workload.name, func=simulate_benchmark,
                args=(workload, configs, max_cycles, sanitize, sim,
                      cache_dir),
                timeout=timeout)
        for workload in workloads]

    if verbose and pool_jobs:
        print(f"[suite] {len(pool_jobs)} benchmark(s) on "
              f"{min(jobs, len(pool_jobs))} worker(s)", flush=True)
    report = run_jobs(pool_jobs, workers=jobs, retries=retries,
                      verbose=verbose)

    results: Dict[str, ExperimentResult] = {}
    failures: Dict[str, JobFailure] = dict(report.failures)
    for workload in workloads:
        if workload.name not in report.results:
            continue
        payload = report.results[workload.name]
        if "max_cycles_exceeded" in payload:
            failures[workload.name] = JobFailure(
                workload.name, "max-cycles", 1,
                payload["max_cycles_exceeded"])
            continue
        results[workload.name] = rebuild_result(workload, configs,
                                                payload)
    return SuiteResult(results, failures=failures)
