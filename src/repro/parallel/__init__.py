"""Parallel suite runs on a defensive process pool.

Two layers (see ``docs/parallel.md``):

* :mod:`repro.parallel.pool` -- a defensive process pool with per-job
  timeout, bounded retry and degradation, and two faces: the blocking
  :func:`run_jobs` and the job server's awaitable ``AsyncPool``;
* :mod:`repro.parallel.suite` -- the parallel suite runner (one
  simulation per worker process).
"""

from .pool import INJECT_KINDS, JobFailure, PoolJob, PoolReport, run_jobs
from .suite import run_suite_parallel, simulate_benchmark

__all__ = [
    "INJECT_KINDS", "JobFailure", "PoolJob", "PoolReport", "run_jobs",
    "run_suite_parallel", "simulate_benchmark",
]
