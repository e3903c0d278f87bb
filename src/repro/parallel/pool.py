"""Bounded process pool with per-job timeout, retry and degradation.

The suite runner fans its simulations out to worker processes.  This
pool is deliberately small and defensive: each
job runs in its own :class:`multiprocessing.Process` with a pipe for
the result, so a worker that raises, hangs past its timeout, or dies
mid-job can never corrupt the results dict or hang the suite -- it is
killed, retried a bounded number of times, and finally reported as a
per-job :class:`JobFailure`.  The parent waits on the workers' result
pipes and process sentinels with the nearest job deadline as its
timeout, so it wakes only when a worker reports, dies or runs out of
time.  If the pool cannot even start processes (restricted
environments), every job degrades to serial in-process execution.

Failure injection (the ``inject`` field) exists for the failure-path
tests: it makes the *worker wrapper* raise, hang or die before calling
the job function, optionally only on selected attempts.
"""

from __future__ import annotations

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
    kind: str  # "exception" | "timeout" | "crash"
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


def _apply_injection(kind: str) -> None:  # pragma: no cover - subprocess
    if kind == "raise":
        raise RuntimeError("injected worker failure")
    if kind == "hang":
        while True:
            time.sleep(3600)
    if kind == "die":
        os._exit(_DIE_EXIT_CODE)
    raise ValueError(f"unknown injection {kind!r}")


def _child_entry(conn, func, args, inject):  # pragma: no cover - subprocess
    """Worker entry: run the job, ship ('ok', result) or ('error', tb)."""
    try:
        if inject is not None:
            _apply_injection(inject)
        result = func(*args)
        conn.send(("ok", result))
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass
    finally:
        conn.close()


class _Running:
    """Book-keeping for one in-flight worker process."""

    __slots__ = ("job", "attempt", "process", "conn", "deadline")

    def __init__(self, job: PoolJob, attempt: int, process, conn,
                 deadline: Optional[float]):
        self.job = job
        self.attempt = attempt
        self.process = process
        self.conn = conn
        self.deadline = deadline


def _pool_context():
    """Fork where available (fast, no pickling of args), else default."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else None)


def _kill(process) -> None:
    try:
        process.terminate()
        process.join(0.25)
        if process.is_alive():
            process.kill()
            process.join(0.25)
    except Exception:
        pass
    finally:
        try:
            process.close()
        except Exception:
            pass


def _run_serial(job: PoolJob, report: PoolReport) -> None:
    """In-process fallback; injection hooks are pool-only and ignored."""
    report.attempts[job.name] = report.attempts.get(job.name, 0) + 1
    try:
        report.results[job.name] = job.func(*job.args)
    except Exception as exc:
        report.failures[job.name] = JobFailure(
            job.name, "exception", report.attempts[job.name], repr(exc))


def _receive(conn) -> Optional[Tuple[str, Any]]:
    """The worker's ``(status, payload)`` if it sent one, else ``None``.

    A pipe at end-of-file (the worker died, or closed it without a
    result) is closed here, so it is never waited on again.
    """
    if conn.closed or not conn.poll():
        return None
    try:
        return conn.recv()
    except (EOFError, OSError):
        conn.close()
        return None


def run_jobs(jobs: Sequence[PoolJob], workers: int,
             retries: int = 1,
             verbose: bool = False) -> PoolReport:
    """Run *jobs* on up to *workers* processes.

    Every job is retried up to *retries* extra times on exception,
    timeout or worker death; a job that still fails lands in
    ``report.failures`` with a clean :class:`JobFailure` -- the results
    dict only ever holds successful results.  ``workers <= 1`` (or a
    pool that cannot start) runs everything serially in-process.

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

    try:
        ctx = _pool_context()
    except Exception:
        report.degraded = True
        for job in jobs:
            _run_serial(job, report)
        return report

    # Loaded here, not with the module: ``import repro`` stays as small.
    from multiprocessing.connection import wait

    queue: List[Tuple[PoolJob, int]] = [(job, 0) for job in jobs]
    running: List[_Running] = []

    def start(job: PoolJob, attempt: int) -> bool:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        inject = job.injection_for(attempt)
        process = ctx.Process(
            target=_child_entry,
            args=(child_conn, job.func, job.args, inject),
            daemon=True)
        try:
            process.start()
        except Exception:
            parent_conn.close()
            child_conn.close()
            return False
        child_conn.close()
        deadline = (time.monotonic() + job.timeout
                    if job.timeout is not None else None)
        running.append(_Running(job, attempt, process, parent_conn,
                                deadline))
        report.attempts[job.name] = attempt + 1
        if verbose:
            print(f"[pool] {job.name}: attempt {attempt + 1}",
                  flush=True)
        return True

    def settle(entry: _Running, kind: str, message: str) -> None:
        """Record a failed attempt; requeue or report."""
        if entry.attempt < retries:
            queue.append((entry.job, entry.attempt + 1))
        else:
            report.failures[entry.job.name] = JobFailure(
                entry.job.name, kind, entry.attempt + 1, message)
            if verbose:
                print(f"[pool] {report.failures[entry.job.name]}",
                      flush=True)

    try:
        while queue or running:
            while queue and len(running) < workers:
                job, attempt = queue.pop(0)
                if not start(job, attempt):
                    # Pool infrastructure failure: degrade to serial for
                    # this and everything still queued.
                    report.degraded = True
                    _run_serial(job, report)
                    for queued_job, _ in queue:
                        _run_serial(queued_job, report)
                    queue.clear()
            if not running:
                continue

            deadlines = [entry.deadline for entry in running
                         if entry.deadline is not None]
            wait([entry.conn for entry in running if not entry.conn.closed]
                 + [entry.process.sentinel for entry in running],
                 max(0.0, min(deadlines) - time.monotonic())
                 if deadlines else None)

            finished: List[_Running] = []
            for entry in running:
                outcome = _receive(entry.conn)
                if outcome is None:
                    if entry.process.is_alive():
                        if entry.deadline is not None and \
                                time.monotonic() >= entry.deadline:
                            settle(entry, "timeout",
                                   f"no result within {entry.job.timeout}s")
                            finished.append(entry)
                        continue
                    # The result may have landed between the poll and
                    # the exit.
                    outcome = _receive(entry.conn)
                    if outcome is None:
                        settle(entry, "crash", f"worker exited with code "
                                               f"{entry.process.exitcode}")
                        finished.append(entry)
                        continue
                status, payload = outcome
                if status == "ok":
                    report.results[entry.job.name] = payload
                else:
                    settle(entry, "exception", payload)
                finished.append(entry)

            for entry in finished:
                running.remove(entry)
                entry.conn.close()
                _kill(entry.process)
    finally:
        for entry in running:  # defensive: never leak workers
            entry.conn.close()
            _kill(entry.process)

    return report
