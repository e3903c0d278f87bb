"""Suite runner: the full evaluation pipeline over many benchmarks.

One simulation per benchmark drives all requested profiler configurations
out-of-band (up to 19 in the paper; unlimited here), exactly like the
paper's FireSim + CPU-side trace-processing setup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from ..analysis.cyclestacks import CycleStack
from ..analysis.symbols import Granularity
from ..cpu.core import MaxCyclesExceeded
from ..parallel.pool import JobFailure
from ..workloads.generator import Workload
from ..workloads.suite import build_suite
from .experiment import (ALL_POLICIES, ExperimentResult, ProfilerConfig,
                         default_profilers, run_experiment)

#: Default sampling period for suite runs.  The paper's 4 kHz on 3.2 GHz
#: is one sample per 800k cycles; our runs are ~10^4x shorter, so a
#: period of 97 cycles yields a comparable number of samples per run.
#: (Prime, so periodic sampling does not lock onto loop periods more than
#: it would in reality.)
DEFAULT_PERIOD = 97


@dataclass
class SuiteResult:
    """Results for every benchmark in a run of the suite."""

    results: Dict[str, ExperimentResult]
    #: Benchmarks whose worker failed after retries (parallel runs).
    failures: Dict[str, JobFailure] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def errors(self, granularity: Granularity,
               policies: Optional[Sequence[str]] = None
               ) -> Dict[str, Dict[str, float]]:
        """benchmark -> policy -> error, computing only *policies*
        (default: every profiler)."""
        return {name: result.errors(granularity, policies)
                for name, result in self.results.items()}

    def average_errors(self, granularity: Granularity,
                       policies: Optional[Sequence[str]] = None
                       ) -> Dict[str, float]:
        """policy -> arithmetic-mean error over benchmarks."""
        table = self.errors(granularity, policies)
        if not table:
            return {}
        policies = list(next(iter(table.values())))
        count = len(table)
        return {p: sum(row[p] for row in table.values()) / count
                for p in policies}

    def cycle_stacks(self) -> Dict[str, CycleStack]:
        return {name: result.cycle_stack()
                for name, result in self.results.items()}

    def sanitizer_summaries(self) -> Dict[str, str]:
        """benchmark -> sanitizer summary line (sanitized runs only)."""
        return {name: result.sanitizer.summary()
                for name, result in self.results.items()
                if result.sanitizer is not None}

    def __getitem__(self, name: str) -> ExperimentResult:
        return self.results[name]


def run_workload(workload: Workload,
                 profilers: Sequence[ProfilerConfig],
                 max_cycles: int = 10_000_000,
                 sanitize: bool = False,
                 sim: str = "step",
                 paranoid: bool = False,
                 cache=None) -> ExperimentResult:
    """Run one workload with the given profiler configurations.

    *sim*, *paranoid* and *cache* select the simulation fast path and
    the content-addressed result cache (see
    :func:`~repro.harness.experiment.run_experiment`).
    """
    return run_experiment(workload.program, profilers,
                          premapped_data=workload.premapped,
                          max_cycles=max_cycles, sanitize=sanitize,
                          sim=sim, paranoid=paranoid,
                          cache=cache)


def run_suite(workloads: Optional[Sequence[Workload]] = None,
              profilers: Optional[Sequence[ProfilerConfig]] = None,
              period: int = DEFAULT_PERIOD,
              policies: Sequence[str] = ALL_POLICIES,
              scale: float = 1.0,
              max_cycles: int = 10_000_000,
              verbose: bool = False,
              sanitize: bool = False,
              jobs: int = 1,
              timeout: Optional[float] = None,
              retries: int = 1,
              sim: str = "step",
              paranoid: bool = False,
              cache=None,
              server: Optional[str] = None) -> SuiteResult:
    """Run the whole suite (or the given workloads).

    *sanitize* attaches a commit-trace sanitizer to every simulation and
    fails fast on the first invariant violation.

    *jobs* > 1 simulates the workloads in parallel worker processes
    (:mod:`repro.parallel.suite`), which take the workloads as built
    here.  With a cache, every workload is looked up here first and
    each hit replayed in this process; only misses reach the workers,
    which record into the same cache.  *timeout* bounds each
    benchmark's wall clock and *retries* caps re-runs of a failed
    worker; exhausted benchmarks land in ``SuiteResult.failures``.

    *sim*, *paranoid* and *cache* select the simulation fast path and
    the content-addressed result cache.  A workload that exhausts
    *max_cycles* is recorded as a ``"max-cycles"``
    :class:`~repro.parallel.pool.JobFailure` instead of aborting the
    whole suite (and is never cached).

    *server* (``"host:port"``) routes named benchmarks through a
    running ``repro serve`` daemon instead of simulating locally:
    the sweep becomes a set of job-server clients, duplicate work
    coalesces server-side, and results are bit-identical to a local
    run (:func:`repro.serve.run_suite_via_server`).
    """
    if workloads is None:
        workloads = build_suite(scale=scale)
    if profilers is None:
        profilers = default_profilers(period, policies=policies)
    if server is not None:
        from ..serve.client import run_suite_via_server
        return run_suite_via_server(
            workloads, profilers, server, scale=scale,
            max_cycles=max_cycles, sanitize=sanitize,
            timeout=timeout, sim=sim, verbose=verbose)
    if jobs > 1:
        from ..parallel.suite import (DEFAULT_JOB_TIMEOUT,
                                      run_suite_parallel)
        from ..simfast.cache import resolve_cache
        return run_suite_parallel(
            workloads, profilers, jobs,
            max_cycles=max_cycles, sanitize=sanitize,
            timeout=DEFAULT_JOB_TIMEOUT if timeout is None else timeout,
            retries=retries, verbose=verbose, sim=sim,
            paranoid=paranoid, cache=resolve_cache(cache))
    results: Dict[str, ExperimentResult] = {}
    failures: Dict[str, JobFailure] = {}
    for workload in workloads:
        if verbose:
            print(f"[suite] running {workload.name} ...", flush=True)
        try:
            results[workload.name] = run_workload(
                workload, profilers, max_cycles, sanitize=sanitize,
                sim=sim, paranoid=paranoid, cache=cache)
        except MaxCyclesExceeded as exc:
            failures[workload.name] = JobFailure(
                workload.name, "max-cycles", 1, str(exc))
            if verbose:
                print(f"[suite] {workload.name}: {exc}", flush=True)
    return SuiteResult(results, failures)
