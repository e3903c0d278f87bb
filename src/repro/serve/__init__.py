"""Profiling-as-a-service: an asyncio job server over the worker pool.

The CLI-only harness re-spawns everything per run; ``repro.serve``
turns it into a long-running daemon (``repro serve``) that accepts
program + config + schedule submissions over HTTP/JSON, coalesces
duplicates by :mod:`~repro.simfast` content key, queues misses onto
per-job worker processes with timeout/retry/cancel, and streams NDJSON
progress events and final reports to many concurrent clients -- the
backbone every sweep, diff and CI scenario plugs into as a client
(``repro submit``, :class:`ServeClient`,
``run_suite(server="host:port")``).

Layers (see ``docs/serve.md``):

* :class:`~repro.parallel.pool.AsyncPool` -- the pool's async face;
* :mod:`~repro.serve.jobs` -- job specs, content keys, the worker
  entry, the canonical :func:`profile_report`;
* :mod:`~repro.serve.server` -- the HTTP daemon;
* :mod:`~repro.serve.client` -- the blocking client library;
* :mod:`~repro.serve.testing` -- fault injection
  (:class:`~repro.serve.testing.FaultyPool`) and the in-process
  server fixture the daemon's test harness is built on.
"""

from ..parallel.pool import AsyncPool, PoolError
from .client import (ClientError, JobCancelled, JobFailed, ServeClient,
                     run_suite_via_server)
from .jobs import (JobSpec, ProgramSpec, execute_job, job_key,
                   profile_report, resolve_program, result_payload)
from .server import Job, ProfileServer, ServeError

__all__ = [
    "AsyncPool", "ClientError", "Job", "JobCancelled", "JobFailed",
    "JobSpec", "PoolError", "ProfileServer", "ProgramSpec", "ServeClient",
    "ServeError", "execute_job", "job_key", "profile_report",
    "resolve_program", "result_payload", "run_suite_via_server",
]
