"""Asyncio front-end to the per-job worker processes of the pool.

The synchronous :mod:`repro.parallel.pool` blocks its caller until a
worker's result pipe or process sentinel is ready or a deadline passes;
a long-running asyncio server needs the same isolation guarantees (a
worker that raises, hangs past its timeout, or dies can never corrupt
the server or leak a process) without blocking the event loop.
:class:`AsyncPool` reuses the pool's worker entry point, process
context and kill helper, but schedules each attempt as an awaitable:
the event loop watches the worker's result pipe and process sentinel
and wakes the attempt when either is ready or the job deadline (on the
loop clock) passes -- there is no poll interval.  Retries are bounded,
and cancelling the awaiting task kills the worker process before the
cancellation propagates.

Concurrency is bounded by an :class:`asyncio.Semaphore`; attempts
waiting for a slot are the pool's *queue depth*.  If worker processes
cannot be started at all (restricted environments) the pool degrades to
running jobs in the default thread executor, exactly like the
synchronous pool degrades to in-process serial execution.

:class:`~repro.serve.testing.FaultyPool` subclasses this to inject
worker crashes, hangs and slow starts for the fault tests.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
from typing import Any, Callable, Optional, Tuple

from ..parallel.pool import (JobFailure, PoolJob, _child_entry, _kill,
                             _pool_context)


async def _ready(loop: asyncio.AbstractEventLoop, fds: Tuple[int, ...],
                 deadline: Optional[float]) -> None:
    """Return once any of *fds* is readable or the loop clock reaches
    *deadline* (``None``: no deadline)."""
    woken = loop.create_future()

    def wake() -> None:
        if not woken.done():
            woken.set_result(None)

    for fd in fds:
        loop.add_reader(fd, wake)
    timer = loop.call_at(deadline, wake) if deadline is not None else None
    try:
        await woken
    finally:
        for fd in fds:
            loop.remove_reader(fd)
        if timer is not None:
            timer.cancel()


class PoolError(Exception):
    """A job failed after exhausting its retries."""

    def __init__(self, failure: JobFailure):
        super().__init__(str(failure))
        self.failure = failure


class AsyncPool:
    """Bounded async process pool with per-job timeout/retry/cancel."""

    def __init__(self, workers: int = 2, retries: int = 1):
        self.workers = max(1, workers)
        self.retries = max(0, retries)
        # Created lazily on first use so the pool can be constructed
        # off-loop (e.g. on a test's main thread) and still bind its
        # primitives to the loop that runs it (Python 3.9 semantics).
        self._slots: Optional[asyncio.Semaphore] = None
        #: Attempts waiting for a worker slot right now.
        self.queued = 0
        #: Workers running right now.
        self.active = 0
        # Lifetime counters (exposed by the server's /stats endpoint).
        self.spawned = 0
        self.crashes = 0
        self.timeouts = 0
        self.exceptions = 0
        self.retried = 0
        self.cancelled = 0
        self.degraded = False

    def health(self) -> dict:
        """Worker-health snapshot for ``/stats``."""
        return {
            "workers": self.workers, "retries": self.retries,
            "queued": self.queued, "active": self.active,
            "spawned": self.spawned, "crashes": self.crashes,
            "timeouts": self.timeouts, "exceptions": self.exceptions,
            "retried": self.retried, "cancelled": self.cancelled,
            "degraded": self.degraded,
        }

    async def run(self, job: PoolJob,
                  on_start: Optional[Callable[[int], None]] = None,
                  on_retry: Optional[
                      Callable[[int, JobFailure], None]] = None) -> Any:
        """Run *job* to completion; return its result.

        *on_start(attempt)* fires when a worker slot is acquired for an
        attempt (0-based); *on_retry(attempt, failure)* fires before a
        retry with the failure that caused it.  Raises
        :class:`PoolError` after retries are exhausted.  Cancelling the
        awaiting task kills the in-flight worker first.
        """
        last: Optional[JobFailure] = None
        for attempt in range(self.retries + 1):
            if attempt:
                self.retried += 1
                if on_retry is not None and last is not None:
                    on_retry(attempt, last)
            status, payload = await self._attempt(job, attempt, on_start)
            if status == "ok":
                return payload
            last = JobFailure(job.name, status, attempt + 1, str(payload))
        assert last is not None
        raise PoolError(last)

    # -- one attempt ----------------------------------------------------------

    async def _attempt(self, job: PoolJob, attempt: int,
                       on_start: Optional[Callable[[int], None]] = None
                       ) -> Tuple[str, Any]:
        """One bounded attempt: ('ok', result) or (kind, message)."""
        if self._slots is None:
            self._slots = asyncio.Semaphore(self.workers)
        self.queued += 1
        acquired = False
        try:
            await self._slots.acquire()
            acquired = True
        finally:
            self.queued -= 1
        try:
            if on_start is not None:
                on_start(attempt)
            return await self._attempt_process(job, attempt)
        finally:
            if acquired:
                self._slots.release()

    async def _attempt_process(self, job: PoolJob,
                               attempt: int) -> Tuple[str, Any]:
        loop = asyncio.get_running_loop()
        try:
            ctx = _pool_context()
        except Exception:
            ctx = None
        if ctx is None or self.degraded:
            return await self._attempt_serial(job)
        parent, child = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_child_entry,
            args=(child, job.func, job.args, job.injection_for(attempt)),
            daemon=True)
        try:
            process.start()
        except Exception:
            parent.close()
            child.close()
            self.degraded = True
            return await self._attempt_serial(job)
        child.close()
        self.spawned += 1
        self.active += 1
        deadline = (loop.time() + job.timeout
                    if job.timeout is not None else None)
        try:
            while True:
                if parent.poll():
                    try:
                        status, payload = parent.recv()
                    except (EOFError, OSError):
                        self.crashes += 1
                        return ("crash", "worker died mid-result")
                    if status == "ok":
                        return ("ok", payload)
                    self.exceptions += 1
                    return ("exception", payload)
                if not process.is_alive():
                    if parent.poll():  # result raced with the exit
                        continue
                    self.crashes += 1
                    return ("crash",
                            f"worker exited with code {process.exitcode}")
                if deadline is not None and loop.time() >= deadline:
                    self.timeouts += 1
                    return ("timeout",
                            f"no result within {job.timeout}s")
                await _ready(loop, (parent.fileno(), process.sentinel),
                             deadline)
        except asyncio.CancelledError:
            self.cancelled += 1
            raise
        finally:
            self.active -= 1
            try:
                parent.close()
            except Exception:
                pass
            _kill(process)

    async def _attempt_serial(self, job: PoolJob) -> Tuple[str, Any]:
        """Degraded mode: run in a thread (injection hooks are ignored,
        like the synchronous pool's serial fallback)."""
        loop = asyncio.get_running_loop()
        self.active += 1
        try:
            future = loop.run_in_executor(
                None, lambda: job.func(*job.args))
            try:
                result = await asyncio.wait_for(future, job.timeout)
            except (asyncio.TimeoutError,
                    concurrent.futures.TimeoutError):
                self.timeouts += 1
                return ("timeout", f"no result within {job.timeout}s")
            except asyncio.CancelledError:
                self.cancelled += 1
                raise
            except Exception as exc:
                self.exceptions += 1
                return ("exception", repr(exc))
            return ("ok", result)
        finally:
            self.active -= 1
