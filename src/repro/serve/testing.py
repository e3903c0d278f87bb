"""Test harness for the job server: fault injection + an in-process
server fixture.

A daemon is only trustworthy with a harness that can break it on
purpose.  :class:`FaultyPool` wraps :class:`~repro.parallel.pool.
AsyncPool` with declarative :class:`Fault` rules that make selected
attempts crash (worker dies), hang (until the job timeout kills it),
raise, or start slowly -- mapped onto the pool's own injection hooks.
:func:`running_server` runs a real :class:`~repro.serve.server.
ProfileServer` on a background thread with its own event loop, so
ordinary blocking clients (and many of them, concurrently) can exercise
the full HTTP surface from a test.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import threading
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from ..parallel.pool import AsyncPool, PoolJob
from .client import ServeClient
from .server import ProfileServer

#: Injection kinds a Fault understands.
FAULT_KINDS = ("crash", "hang", "raise", "slow-start")

#: Map fault kinds onto the worker wrapper's injection hooks.
_INJECT_FOR = {"crash": "die", "hang": "hang", "raise": "raise"}


@dataclass(frozen=True)
class Fault:
    """One injection rule: which jobs/attempts fail, and how."""

    kind: str  # one of FAULT_KINDS
    #: Substring of the job name (the job id); ``""`` matches all.
    match: str = ""
    #: Attempts (0-based) the fault applies to; ``None`` = all.
    attempts: Optional[frozenset] = None
    #: Extra startup latency for ``slow-start`` faults (seconds).
    delay: float = 0.25

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")

    def applies(self, job: PoolJob, attempt: int) -> bool:
        if self.match and self.match not in job.name:
            return False
        return self.attempts is None or attempt in self.attempts


class FaultyPool(AsyncPool):
    """An AsyncPool that injects faults into matching attempts."""

    def __init__(self, *args, faults: Tuple[Fault, ...] = (),
                 **kwargs):
        super().__init__(*args, **kwargs)
        self.faults = list(faults)
        #: (job name, attempt, kind) of every injection performed.
        self.injected = []

    def add_fault(self, fault: Fault) -> None:
        self.faults.append(fault)

    async def _attempt_process(self, job: PoolJob,
                               attempt: int) -> Tuple[str, object]:
        for fault in self.faults:
            if not fault.applies(job, attempt):
                continue
            self.injected.append((job.name, attempt, fault.kind))
            if fault.kind == "slow-start":
                await asyncio.sleep(fault.delay)
                continue
            job = dataclasses.replace(
                job, inject=_INJECT_FOR[fault.kind],
                inject_attempts=frozenset({attempt}))
        return await super()._attempt_process(job, attempt)


class ServerHandle:
    """A running background-thread server, addressable from tests."""

    def __init__(self, server: ProfileServer,
                 loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread):
        self.server = server
        self.loop = loop
        self.thread = thread

    @property
    def address(self) -> Tuple[str, int]:
        return self.server.host, self.server.port

    @property
    def address_str(self) -> str:
        return f"{self.server.host}:{self.server.port}"

    def client(self, timeout: float = 30.0) -> ServeClient:
        return ServeClient(self.server.host, self.server.port,
                           timeout=timeout)

    def call(self, coro, timeout: float = 60.0):
        """Run a coroutine on the server loop; return its result."""
        future = asyncio.run_coroutine_threadsafe(coro, self.loop)
        return future.result(timeout)

    def shutdown(self, drain: bool = True, timeout: float = 60.0):
        return self.call(self.server.shutdown(drain=drain),
                         timeout=timeout)


@contextlib.contextmanager
def running_server(pool: Optional[AsyncPool] = None,
                   start_timeout: float = 30.0,
                   **server_kwargs) -> Iterator[ServerHandle]:
    """Context manager: a ProfileServer on its own thread + loop.

    The server binds an ephemeral port on 127.0.0.1 by default.  On
    exit, outstanding jobs are cancelled (tests that verify draining
    call ``handle.shutdown(drain=True)`` themselves first) and the
    loop and thread are torn down.  *pool* may be an
    :class:`AsyncPool`/:class:`FaultyPool` constructed on any thread --
    its loop primitives bind lazily to the server's loop.
    """
    loop = asyncio.new_event_loop()
    started = threading.Event()
    boxed = {}

    def _main() -> None:
        asyncio.set_event_loop(loop)
        server = ProfileServer(pool=pool, **server_kwargs)
        try:
            loop.run_until_complete(server.start())
        except Exception as exc:  # pragma: no cover - bind failure
            boxed["error"] = exc
            started.set()
            return
        boxed["server"] = server
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    thread = threading.Thread(target=_main, name="repro-serve",
                              daemon=True)
    thread.start()
    if not started.wait(start_timeout):  # pragma: no cover
        raise RuntimeError("server failed to start in time")
    if "error" in boxed:  # pragma: no cover
        raise boxed["error"]
    handle = ServerHandle(boxed["server"], loop, thread)
    try:
        yield handle
    finally:
        with contextlib.suppress(Exception):
            handle.shutdown(drain=False)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=start_timeout)
