"""One defensive process pool with a blocking face and an async face.

Each attempt of a job runs in its own :class:`multiprocessing.Process`
with a pipe for the result (:class:`_Attempt`), so a worker that
raises, hangs past its timeout, or dies mid-job can never corrupt a
result or hang its caller: it is killed, retried a bounded number of
times, and finally reported as a per-job :class:`JobFailure`.  Nothing
polls on a timer: an attempt settles when its result pipe or process
sentinel is readable or its deadline passes.  :func:`run_jobs` (the
suite runner's face) blocks in :func:`multiprocessing.connection.wait`
over every running attempt, and runs the jobs left serially in-process
when a worker cannot start.  :class:`AsyncPool` (the job server's face)
awaits each attempt through ``loop.add_reader`` and a deadline timer,
and falls back to the default thread executor.  Only the async face
imports ``asyncio``, which loads ``ssl`` and costs about 2.7 MB of
resident memory.

Failure injection (the ``inject`` field) exists for the failure-path
tests: it makes the *worker wrapper* raise, hang or die before calling
the job function, optionally only on selected attempts.
"""

from __future__ import annotations

import contextlib
import multiprocessing as mp
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Injection kinds understood by the worker wrapper (test hook).
INJECT_KINDS = ("raise", "hang", "die")

#: Exit code used by the "die" injection so tests can tell it apart.
_DIE_EXIT_CODE = 86


@dataclass
class PoolJob:
    """One unit of work: a picklable callable plus its arguments."""

    name: str
    func: Callable[..., Any]
    args: Tuple = ()
    timeout: Optional[float] = None
    #: Test hook: make the worker fail before running ``func``.
    inject: Optional[str] = None
    #: Attempts (0-based) the injection applies to; ``None`` = all.
    inject_attempts: Optional[frozenset] = None

    def injection_for(self, attempt: int) -> Optional[str]:
        if self.inject is None:
            return None
        if self.inject_attempts is not None and \
                attempt not in self.inject_attempts:
            return None
        return self.inject


@dataclass
class JobFailure:
    """Clean per-job error report after retries were exhausted."""

    name: str
    # "exception" | "timeout" | "crash" (pool) | "max-cycles" (suite
    # runners) | "invariant" | "error" (job server, its default kind)
    kind: str
    attempts: int
    message: str = ""

    def __str__(self) -> str:
        detail = f": {self.message}" if self.message else ""
        return (f"{self.name}: {self.kind} after {self.attempts} "
                f"attempt(s){detail}")


@dataclass
class PoolReport:
    """Everything a pool run produced, failures included."""

    results: Dict[str, Any] = field(default_factory=dict)
    failures: Dict[str, JobFailure] = field(default_factory=dict)
    #: Attempts used per job (1 = first try succeeded).
    attempts: Dict[str, int] = field(default_factory=dict)
    #: The pool fell back to in-process serial execution.
    degraded: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures


class PoolError(Exception):
    """A job failed after exhausting its retries."""

    def __init__(self, failure: JobFailure):
        super().__init__(str(failure))
        self.failure = failure


def _child_entry(conn, func, args, inject):  # pragma: no cover - subprocess
    """Worker entry: ship ('ok', result) or ('exception', traceback)."""
    try:
        if inject == "raise":
            raise RuntimeError("injected worker failure")
        while inject == "hang":
            time.sleep(3600)
        if inject == "die":
            os._exit(_DIE_EXIT_CODE)
        if inject is not None:
            raise ValueError(f"unknown injection {inject!r}")
        conn.send(("ok", func(*args)))
    except BaseException:
        try:
            conn.send(("exception", traceback.format_exc()))
        except Exception:
            pass
    finally:
        conn.close()


def _pool_context():
    """Fork where available (fast, no pickling of args), else default."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else None)


def _run_serial(job: PoolJob, report: PoolReport) -> None:
    """In-process fallback; injection hooks are pool-only and ignored."""
    report.attempts[job.name] = report.attempts.get(job.name, 0) + 1
    try:
        report.results[job.name] = job.func(*job.args)
    except Exception as exc:
        report.failures[job.name] = JobFailure(
            job.name, "exception", report.attempts[job.name], repr(exc))


class _Attempt:
    """One attempt of one job, running in its own worker process.

    A face waits until one of :meth:`fds` is readable or
    :attr:`deadline` (on :func:`time.monotonic`) passes, then asks
    :meth:`outcome`; once that is not ``None`` it calls :meth:`kill`.
    """

    __slots__ = ("job", "attempt", "process", "conn", "deadline")

    def __init__(self, job: PoolJob, attempt: int, process, conn):
        self.job = job
        self.attempt = attempt  # 0-based
        self.process = process
        self.conn = conn
        self.deadline = (time.monotonic() + job.timeout
                         if job.timeout is not None else None)

    @classmethod
    def start(cls, job: PoolJob, attempt: int) -> Optional["_Attempt"]:
        """Start a worker for *attempt* of *job*; ``None`` if none can
        start."""
        try:
            ctx = _pool_context()
        except Exception:
            return None
        conn, child = ctx.Pipe(duplex=False)
        process = ctx.Process(target=_child_entry, daemon=True, args=(
            child, job.func, job.args, job.injection_for(attempt)))
        try:
            process.start()
        except Exception:
            conn.close()
            return None
        finally:
            child.close()
        return cls(job, attempt, process, conn)

    def fds(self) -> List[int]:
        """The process sentinel, and the result pipe until it reaches
        end-of-file."""
        if self.conn.closed:
            return [self.process.sentinel]
        return [self.process.sentinel, self.conn.fileno()]

    def _receive(self) -> Optional[Tuple[str, Any]]:
        """The worker's ``(kind, payload)`` if it sent one, else ``None``.

        A pipe at end-of-file (the worker died, or closed it without a
        result) is closed here, so it is never waited on again.
        """
        if self.conn.closed or not self.conn.poll():
            return None
        try:
            return self.conn.recv()
        except (EOFError, OSError):
            self.conn.close()
            return None

    def outcome(self) -> Optional[Tuple[str, Any]]:
        """``("ok", result)``, a failure ``(kind, message)`` of kind
        ``exception``, ``timeout`` or ``crash``, or ``None`` while the
        worker runs within its deadline."""
        received = self._receive()
        if received is not None:
            return received
        if self.process.is_alive():
            if self.deadline is None or time.monotonic() < self.deadline:
                return None
            return "timeout", f"no result within {self.job.timeout}s"
        # The result may have landed between the read and the exit.
        received = self._receive()
        if received is not None:
            return received
        return "crash", f"worker exited with code {self.process.exitcode}"

    def kill(self) -> None:
        """Close the pipe and stop the worker, whatever its state."""
        self.conn.close()
        process = self.process
        with contextlib.suppress(Exception):
            process.terminate()
            process.join(0.25)
            if process.is_alive():
                process.kill()
                process.join(0.25)
        with contextlib.suppress(Exception):
            process.close()


# -- the blocking face --------------------------------------------------------


def run_jobs(jobs: Sequence[PoolJob], workers: int,
             retries: int = 1,
             verbose: bool = False) -> PoolReport:
    """Run *jobs* on up to *workers* processes.

    Every job is retried up to *retries* extra times on exception,
    timeout or worker death; a job that still fails lands in
    ``report.failures`` with a clean :class:`JobFailure` -- the results
    dict only ever holds successful results.  ``workers <= 1`` (or a
    worker that cannot start) runs everything left serially in-process.

    The parent never polls on a timer: it blocks until a worker's
    result pipe or process sentinel is ready, or the nearest job
    deadline passes.
    """
    report = PoolReport()
    if workers <= 1:
        report.degraded = workers <= 0
        for job in jobs:
            _run_serial(job, report)
        return report

    # Loaded here, not with the module: ``import repro`` stays as small.
    from multiprocessing.connection import wait

    queue: List[Tuple[PoolJob, int]] = [(job, 0) for job in jobs]
    running: List[_Attempt] = []
    try:
        while queue or running:
            while queue and len(running) < workers:
                job, attempt = queue.pop(0)
                started = _Attempt.start(job, attempt)
                if started is None:
                    # Pool infrastructure failure: degrade to serial for
                    # this and everything still queued.
                    report.degraded = True
                    _run_serial(job, report)
                    for queued_job, _ in queue:
                        _run_serial(queued_job, report)
                    queue.clear()
                    break
                running.append(started)
                report.attempts[job.name] = attempt + 1
                if verbose:
                    print(f"[pool] {job.name}: attempt {attempt + 1}",
                          flush=True)
            if not running:
                continue

            deadlines = [entry.deadline for entry in running
                         if entry.deadline is not None]
            wait([fd for entry in running for fd in entry.fds()],
                 max(0.0, min(deadlines) - time.monotonic())
                 if deadlines else None)

            for entry in list(running):
                outcome = entry.outcome()
                if outcome is None:
                    continue
                running.remove(entry)
                entry.kill()
                kind, payload = outcome
                if kind == "ok":
                    report.results[entry.job.name] = payload
                elif entry.attempt < retries:
                    queue.append((entry.job, entry.attempt + 1))
                else:
                    failure = JobFailure(entry.job.name, kind,
                                         entry.attempt + 1, payload)
                    report.failures[entry.job.name] = failure
                    if verbose:
                        print(f"[pool] {failure}", flush=True)
    finally:
        for entry in running:  # defensive: never leak workers
            entry.kill()

    return report


# -- the async face -----------------------------------------------------------


async def _ready(loop, fds: List[int], deadline: Optional[float]) -> None:
    """Return once any of *fds* is readable or :func:`time.monotonic`
    reaches *deadline* (``None``: no deadline)."""
    woken = loop.create_future()

    def wake() -> None:
        if not woken.done():
            woken.set_result(None)

    for fd in fds:
        loop.add_reader(fd, wake)
    timer = (loop.call_later(max(0.0, deadline - time.monotonic()), wake)
             if deadline is not None else None)
    try:
        await woken
    finally:
        for fd in fds:
            loop.remove_reader(fd)
        if timer is not None:
            timer.cancel()


class AsyncPool:
    """Bounded async process pool with per-job timeout/retry/cancel.

    An :class:`asyncio.Semaphore` bounds concurrency; attempts waiting
    for a slot are the pool's *queue depth*.
    :class:`~repro.serve.testing.FaultyPool` overrides
    :meth:`_attempt_process` to inject faults.
    """

    def __init__(self, workers: int = 2, retries: int = 1):
        self.workers = max(1, workers)
        self.retries = max(0, retries)
        # Created lazily on first use so the pool can be constructed
        # off-loop (e.g. on a test's main thread) and still bind its
        # primitives to the loop that runs it (Python 3.9 semantics).
        self._slots = None
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
        import asyncio
        if self._slots is None:
            self._slots = asyncio.Semaphore(self.workers)
        for attempt in range(self.retries + 1):
            self.queued += 1
            try:
                await self._slots.acquire()
            finally:
                self.queued -= 1
            try:
                if on_start is not None:
                    on_start(attempt)
                kind, payload = await self._attempt_process(job, attempt)
            except asyncio.CancelledError:
                self.cancelled += 1
                raise
            finally:
                self._slots.release()
            if kind == "ok":
                return payload
            if kind == "crash":
                self.crashes += 1
            elif kind == "timeout":
                self.timeouts += 1
            else:
                self.exceptions += 1
            failure = JobFailure(job.name, kind, attempt + 1, str(payload))
            if attempt == self.retries:
                raise PoolError(failure)
            self.retried += 1
            if on_retry is not None:
                on_retry(attempt + 1, failure)

    async def _attempt_process(self, job: PoolJob,
                               attempt: int) -> Tuple[str, Any]:
        """One attempt: ``("ok", result)`` or ``(kind, message)``."""
        import asyncio
        running = None if self.degraded else _Attempt.start(job, attempt)
        if running is None:
            self.degraded = True
            return await self._attempt_serial(job)
        loop = asyncio.get_running_loop()
        self.spawned += 1
        self.active += 1
        try:
            while True:
                outcome = running.outcome()
                if outcome is not None:
                    return outcome
                await _ready(loop, running.fds(), running.deadline)
        finally:
            self.active -= 1
            running.kill()

    async def _attempt_serial(self, job: PoolJob) -> Tuple[str, Any]:
        """Degraded mode: run in a thread (injection hooks are ignored,
        like the blocking face's serial fallback)."""
        import asyncio
        loop = asyncio.get_running_loop()
        self.active += 1
        try:
            result = await asyncio.wait_for(
                loop.run_in_executor(None, job.func, *job.args),
                job.timeout)
        except asyncio.TimeoutError:
            return "timeout", f"no result within {job.timeout}s"
        except Exception as exc:
            return "exception", repr(exc)
        finally:
            self.active -= 1
        return "ok", result
