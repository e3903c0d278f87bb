"""Parallel record/replay infrastructure.

Three layers (see ``docs/parallel.md``):

* :mod:`repro.parallel.pool` -- a defensive process pool with per-job
  timeout, bounded retry and serial degradation;
* :mod:`repro.parallel.shard` -- sharded replay of chunk-indexed (v3)
  commit traces, bit-identical to serial replay for every sampling
  profiler;
* :mod:`repro.parallel.suite` -- the parallel suite runner (one
  simulation per worker process);
* :mod:`repro.parallel.bench` -- the ``repro bench`` pipeline timing.
"""

from .bench import render_bench, run_bench
from .pool import INJECT_KINDS, JobFailure, PoolJob, PoolReport, run_jobs
from .shard import (ProgramSpec, ReplayOutcome, plan_shards,
                    replay_serial, replay_shard, replay_sharded)
from .suite import run_suite_parallel, simulate_benchmark

__all__ = [
    "INJECT_KINDS", "JobFailure", "PoolJob", "PoolReport", "run_jobs",
    "ProgramSpec", "ReplayOutcome", "plan_shards", "replay_serial",
    "replay_shard", "replay_sharded",
    "run_suite_parallel", "simulate_benchmark",
    "render_bench", "run_bench",
]
