"""Profiling-as-a-service: the asyncio HTTP/JSON job server.

``ProfileServer`` is a long-running daemon over the worker pool: it
accepts program + config + schedule submissions, content-hashes each
job with the existing ``SimCache`` key machinery so duplicate
submissions coalesce onto one in-flight future, queues misses onto
per-job worker processes (:class:`~repro.parallel.pool.AsyncPool`) with
per-job timeout/retry/cancel, and streams progress events plus final
profile reports to any number of concurrent clients.

Protocol (one request per connection, ``Connection: close``; see
``docs/serve.md``)::

    POST /jobs                  submit a JobSpec; 202 {job, state,
                                coalesced, key}
    GET  /jobs                  summaries of every known job
    GET  /jobs/<id>             job status; ?report=1 ?payload=1 ?spec=1
    GET  /jobs/<id>/wait        block until terminal; ?timeout=SECONDS
    GET  /jobs/<id>/events      NDJSON event stream; ?after=SEQ
    POST /jobs/<id>/cancel      cancel a queued/running job
    GET  /stats                 queue depth, dedup, cache, steady-state
                                memoization totals, worker health
    GET  /healthz               liveness probe
    POST /shutdown              drain (?drain=0 cancels) and stop

Job states: ``queued -> running -> done | error | cancelled``.  Every
state transition appends a monotonically-sequenced event; streams
replay the full history before following live, so no subscriber can
miss a transition.  Reports are byte-identical to a direct
``run_workload`` call with the same inputs.
"""

from __future__ import annotations

import asyncio
import base64
import contextlib
import pickle
import time
from typing import Dict, List, Optional, Tuple

from ..parallel.pool import AsyncPool, JobFailure, PoolError, PoolJob
from .http import (BadRequest, Request, json_response, ndjson_line,
                   read_request, stream_head)
from .jobs import (CANCELLED, DEFAULT_JOB_TIMEOUT, DONE, ERROR, QUEUED,
                   RUNNING, TERMINAL_STATES, JobSpec, execute_job,
                   job_key)


class ServeError(Exception):
    """An error with an HTTP status, reported as JSON to the client."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class Job:
    """Server-side record of one (possibly coalesced) submission."""

    __slots__ = ("id", "key", "sim_key", "spec", "state", "events",
                 "signal", "task", "report", "payload", "error",
                 "warnings", "subscribers", "attempts", "created",
                 "finished")

    def __init__(self, job_id: str, key: str, sim_key: str,
                 spec: JobSpec):
        self.id = job_id
        self.key = key
        self.sim_key = sim_key
        self.spec = spec
        self.state = QUEUED
        self.events: List[dict] = []
        self.signal = asyncio.Event()
        self.task: Optional[asyncio.Task] = None
        self.report: Optional[dict] = None
        self.payload: Optional[dict] = None
        self.error: Optional[dict] = None
        self.warnings: List[str] = []
        self.subscribers = 1
        self.attempts = 0
        self.created = time.time()
        self.finished: Optional[float] = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES


class ProfileServer:
    """Asyncio job server over the worker pool (see module docstring).

    *cache* follows the harness convention (``True`` = default root, a
    path = that root, ``None``/``False`` = disabled).  With caching
    disabled duplicates still coalesce in-flight and completed jobs are
    served from memory, but a restarted server re-simulates.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 workers: int = 2, retries: int = 1,
                 cache=True,
                 job_timeout: float = DEFAULT_JOB_TIMEOUT,
                 pool: Optional[AsyncPool] = None):
        from ..simfast.cache import resolve_cache
        self.host = host
        self.port = port
        self.job_timeout = job_timeout
        self.pool = pool or AsyncPool(workers=workers, retries=retries)
        self.cache = resolve_cache(cache)
        self.jobs: Dict[str, Job] = {}
        self._by_key: Dict[str, Job] = {}
        self._key_seq: Dict[str, int] = {}
        # Distinct jobs sharing a simulation key serialize on these
        # locks (cache enabled only): the first fills the cache entry,
        # the rest replay it -- never more than one simulation per
        # simulation key, as /stats advertises.
        self._sim_locks: Dict[str, asyncio.Lock] = {}
        self._accepting = True
        self._server: Optional[asyncio.AbstractServer] = None
        self._started: Optional[float] = None
        # Lifetime counters for /stats.
        self.submissions = 0
        self.coalesced = 0
        self.completed = 0
        self.failed = 0
        self.cancelled_jobs = 0
        self.simulations = 0
        self.cache_hits = 0
        self.steady_state_iterations = 0
        self.steady_state_cycles = 0
        self.streams_open = 0
        self.streams_served = 0
        self.connections = 0

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound (host, port)."""
        self._started = time.time()
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.host, self.port

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        with contextlib.suppress(asyncio.CancelledError):
            await self._server.serve_forever()

    async def shutdown(self, drain: bool = True) -> dict:
        """Stop accepting submissions; drain (or cancel) the queue.

        With *drain* every queued/running job runs to a terminal state
        before the listener closes -- no accepted work is lost.
        Without it, outstanding jobs are cancelled.
        """
        self._accepting = False
        tasks = [job.task for job in self.jobs.values()
                 if job.task is not None and not job.task.done()]
        if not drain:
            for task in tasks:
                task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        return {"drained": len(tasks) if drain else 0,
                "cancelled": 0 if drain else len(tasks),
                "jobs": {job.id: job.state
                         for job in self.jobs.values()}}

    # -- submission and lifecycle ---------------------------------------------

    async def submit(self, spec: JobSpec) -> Tuple[Job, bool]:
        """Register *spec*; returns (job, coalesced).

        Equal job keys coalesce onto the same in-flight (or completed)
        job; a key whose previous job failed or was cancelled gets a
        fresh run.  Raises :class:`ServeError` (503 while shutting
        down, 400 for specs that cannot be resolved).
        """
        if not self._accepting:
            raise ServeError(503, "server is shutting down")
        loop = asyncio.get_running_loop()
        try:
            sim_key, key = await loop.run_in_executor(
                None, job_key, spec)
        except Exception as exc:
            raise ServeError(400, f"cannot resolve job: {exc}") \
                from None
        self.submissions += 1
        existing = self._by_key.get(key)
        if existing is not None:
            existing.subscribers += 1
            self.coalesced += 1
            return existing, True
        seq = self._key_seq[key] = self._key_seq.get(key, 0) + 1
        job = Job(f"{key[:12]}-{seq}", key, sim_key, spec)
        self.jobs[job.id] = job
        self._by_key[key] = job
        self._emit(job, {"event": "queued", "state": QUEUED,
                         "key": key})
        job.task = asyncio.ensure_future(self._run_job(job))
        return job, False

    async def _run_job(self, job: Job) -> None:
        timeout = (job.spec.timeout if job.spec.timeout is not None
                   else self.job_timeout)
        pool_job = PoolJob(name=job.id, func=execute_job,
                           args=(job.spec, self.cache),
                           timeout=timeout)
        if self.cache is not None:
            sim_lock = self._sim_locks.setdefault(job.sim_key,
                                                  asyncio.Lock())
        else:
            # Without a cache, same-key jobs cannot share a trace, so
            # serializing them would only lose parallelism.
            sim_lock = contextlib.AsyncExitStack()  # no-op context
        try:
            async with sim_lock:
                outcome = await self.pool.run(
                    pool_job,
                    on_start=lambda attempt: self._on_start(job, attempt),
                    on_retry=lambda attempt, failure:
                        self._on_retry(job, attempt, failure))
        except PoolError as exc:
            failure = exc.failure
            self._finish(job, ERROR, error={
                "kind": failure.kind, "message": failure.message,
                "attempts": failure.attempts})
            return
        except asyncio.CancelledError:
            self._finish(job, CANCELLED)
            raise
        if "error" in outcome:
            self._finish(job, ERROR, error=dict(outcome["error"]))
            return
        job.report = outcome["report"]
        job.payload = outcome.get("payload")
        job.warnings = list(outcome.get("warnings", ()))
        if job.report.get("cached"):
            self.cache_hits += 1
        else:
            self.simulations += 1
        core_stats = job.report.get("stats") or {}
        self.steady_state_iterations += int(
            core_stats.get("steady_state_iterations", 0))
        self.steady_state_cycles += int(
            core_stats.get("steady_state_cycles", 0))
        self._finish(job, DONE)

    def _on_start(self, job: Job, attempt: int) -> None:
        job.attempts = attempt + 1
        job.state = RUNNING
        self._emit(job, {"event": "running", "state": RUNNING,
                         "attempt": attempt + 1})

    def _on_retry(self, job: Job, attempt: int,
                  failure: JobFailure) -> None:
        self._emit(job, {"event": "retry", "state": job.state,
                         "attempt": attempt + 1, "cause": failure.kind,
                         "message": failure.message})

    def _finish(self, job: Job, state: str,
                error: Optional[dict] = None) -> None:
        job.state = state
        job.error = error
        job.finished = time.time()
        event = {"event": state, "state": state}
        if state == DONE:
            self.completed += 1
            event["cached"] = bool(job.report
                                   and job.report.get("cached"))
        else:
            # Failed/cancelled keys may be resubmitted for a fresh run.
            if self._by_key.get(job.key) is job:
                del self._by_key[job.key]
            if state == ERROR:
                self.failed += 1
                event.update(error or {})
            else:
                self.cancelled_jobs += 1
        self._emit(job, event)

    def _emit(self, job: Job, event: dict) -> None:
        event["seq"] = len(job.events)
        event["job"] = job.id
        event["t"] = round(time.time(), 6)
        job.events.append(event)
        signal, job.signal = job.signal, asyncio.Event()
        signal.set()

    async def _next_event(self, job: Job, index: int) -> dict:
        while len(job.events) <= index:
            signal = job.signal
            if len(job.events) > index:
                break
            await signal.wait()
        return job.events[index]

    async def wait_terminal(self, job: Job,
                            timeout: Optional[float] = None) -> bool:
        """Await a terminal state; False if *timeout* expired first."""

        async def _until_terminal() -> None:
            while not job.terminal:
                signal = job.signal
                if job.terminal:
                    break
                await signal.wait()

        try:
            await asyncio.wait_for(_until_terminal(), timeout)
        except asyncio.TimeoutError:
            return False
        return True

    def cancel(self, job: Job) -> bool:
        """Request cancellation; False if the job already finished."""
        if job.terminal or job.task is None:
            return False
        job.task.cancel()
        return True

    # -- views ----------------------------------------------------------------

    def describe(self, job: Job, report: bool = False,
                 payload: bool = False, spec: bool = False) -> dict:
        info = {
            "job": job.id, "key": job.key, "sim_key": job.sim_key,
            "state": job.state, "attempts": job.attempts,
            "subscribers": job.subscribers, "events": len(job.events),
            "created": job.created, "finished": job.finished,
            "warnings": job.warnings,
        }
        if job.error is not None:
            info["error"] = job.error
        if report and job.report is not None:
            info["report"] = job.report
        if payload and job.payload is not None:
            info["payload"] = base64.b64encode(
                pickle.dumps(job.payload)).decode("ascii")
        if spec:
            info["spec"] = job.spec.to_dict()
        return info

    def stats(self) -> dict:
        states = {state: 0 for state in
                  (QUEUED, RUNNING, DONE, ERROR, CANCELLED)}
        for job in self.jobs.values():
            states[job.state] += 1
        cache_info = {"enabled": self.cache is not None,
                      "hits": self.cache_hits,
                      "simulations": self.simulations}
        if self.cache is not None:
            try:
                cache_info.update(self.cache.stats())
            except OSError:
                pass
        return {
            "server": {
                "host": self.host, "port": self.port,
                "accepting": self._accepting,
                "uptime_s": (time.time() - self._started
                             if self._started is not None else 0.0),
            },
            "jobs": dict(states, total=len(self.jobs),
                         queue_depth=self.pool.queued),
            "dedup": {"submissions": self.submissions,
                      "coalesced": self.coalesced,
                      "distinct_keys": len(self._by_key)},
            "cache": cache_info,
            "pool": self.pool.health(),
            "steady_state": {
                "iterations": self.steady_state_iterations,
                "cycles": self.steady_state_cycles},
            "streams": {"open": self.streams_open,
                        "served": self.streams_served},
            "connections": {"open": self.connections},
        }

    # -- HTTP -----------------------------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        self.connections += 1
        try:
            try:
                request = await read_request(reader)
            except BadRequest as exc:
                writer.write(json_response(400, {"error": str(exc)}))
                await writer.drain()
                return
            if request is None:
                return
            try:
                await self._dispatch(request, reader, writer)
            except ServeError as exc:
                writer.write(json_response(exc.status,
                                           {"error": str(exc)}))
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; jobs are unaffected
        finally:
            self.connections -= 1
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _dispatch(self, request: Request,
                        reader: asyncio.StreamReader,
                        writer: asyncio.StreamWriter) -> None:
        method, path = request.method, request.path.rstrip("/")
        if path == "/healthz" and method == "GET":
            writer.write(json_response(200, {"ok": True}))
        elif path == "/stats" and method == "GET":
            writer.write(json_response(200, self.stats()))
        elif path == "/shutdown" and method == "POST":
            drain = request.query.get("drain", "1") not in ("0", "no")
            summary = await self.shutdown(drain=drain)
            writer.write(json_response(200, summary))
        elif path == "/jobs" and method == "POST":
            await self._http_submit(request, writer)
        elif path == "/jobs" and method == "GET":
            writer.write(json_response(200, {
                "jobs": [self.describe(job)
                         for job in self.jobs.values()]}))
        elif path.startswith("/jobs/"):
            await self._http_job(request, path, reader, writer)
        else:
            raise ServeError(404 if method == "GET" else 405,
                             f"no route for {method} {request.path}")
        await writer.drain()

    async def _http_submit(self, request: Request,
                           writer: asyncio.StreamWriter) -> None:
        try:
            spec = JobSpec.from_dict(request.json())
        except ValueError as exc:
            raise ServeError(400, str(exc)) from None
        job, coalesced = await self.submit(spec)
        writer.write(json_response(202, {
            "job": job.id, "key": job.key, "state": job.state,
            "coalesced": coalesced}))

    async def _http_job(self, request: Request, path: str,
                        reader: asyncio.StreamReader,
                        writer: asyncio.StreamWriter) -> None:
        parts = path.split("/")  # '', 'jobs', <id>[, verb]
        job = self.jobs.get(parts[2])
        if job is None:
            raise ServeError(404, f"unknown job {parts[2]!r}")
        verb = parts[3] if len(parts) > 3 else None
        flag = (lambda name: request.query.get(name)
                not in (None, "0", "no"))
        if verb is None and request.method == "GET":
            writer.write(json_response(200, self.describe(
                job, report=flag("report") or job.terminal,
                payload=flag("payload"), spec=flag("spec"))))
        elif verb == "wait" and request.method == "GET":
            timeout = request.query.get("timeout")
            finished = await self.wait_terminal(
                job, float(timeout) if timeout is not None else None)
            info = self.describe(job, report=True,
                                 payload=flag("payload"))
            info["timed_out"] = not finished
            writer.write(json_response(200 if finished else 408, info))
        elif verb == "cancel" and request.method == "POST":
            cancelled = self.cancel(job)
            if cancelled:
                await self.wait_terminal(job)
            writer.write(json_response(200, {
                "job": job.id, "state": job.state,
                "cancelled": cancelled}))
        elif verb == "events" and request.method == "GET":
            await self._http_stream(request, reader, writer, job)
        else:
            raise ServeError(404, f"no route for {request.method} "
                                  f"{request.path}")

    async def _http_stream(self, request: Request,
                           reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter,
                           job: Job) -> None:
        """NDJSON event stream: full history, then live, until the
        terminal event.  A disconnecting client ends the stream without
        touching the job."""
        try:
            index = int(request.query.get("after", "-1")) + 1
        except ValueError:
            raise ServeError(400, "bad 'after' parameter") from None
        writer.write(stream_head())
        await writer.drain()
        self.streams_open += 1
        disconnect = asyncio.ensure_future(reader.read(1))
        try:
            while True:
                waiter = asyncio.ensure_future(
                    self._next_event(job, index))
                done, _pending = await asyncio.wait(
                    {waiter, disconnect},
                    return_when=asyncio.FIRST_COMPLETED)
                if waiter not in done:
                    waiter.cancel()
                    break  # client hung up (EOF or stray bytes)
                event = waiter.result()
                writer.write(ndjson_line(event))
                await writer.drain()
                index += 1
                if event.get("state") in TERMINAL_STATES:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # mid-stream disconnect: the job is unaffected
        finally:
            disconnect.cancel()
            with contextlib.suppress(asyncio.CancelledError,
                                     Exception):
                await disconnect
            self.streams_open -= 1
            self.streams_served += 1
