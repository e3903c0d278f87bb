"""Synchronous client library for the profiling job server.

``ServeClient`` wraps the server's HTTP/JSON protocol in a small
submit/wait/cancel/stream abstraction (the scheduler/client split):
every call opens one connection (the server closes it after the
response), so a client object is trivially shareable across threads.

``run_suite_via_server`` turns a whole suite run into server clients:
named benchmarks are submitted as jobs (with the worker payload
requested, so full ``ExperimentResult`` objects are rebuilt exactly
like the parallel suite runner does) and anything the server cannot
rebuild by name runs locally.  Payload rebuilding unpickles data from
the server -- only point a payload-requesting client at a server you
trust (for this repo: your own localhost daemon).
"""

from __future__ import annotations

import base64
import http.client
import json
import pickle
import socket
from typing import Dict, Iterator, List, Optional, Tuple

from .jobs import TERMINAL_STATES, JobSpec, ProgramSpec

#: Default client-side timeout for one HTTP call (seconds).  ``wait``
#: calls add the server-side wait budget on top.
DEFAULT_HTTP_TIMEOUT = 30.0


class ClientError(Exception):
    """The server refused a request (4xx/5xx) or sent garbage."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class JobFailed(Exception):
    """A waited-on job reached a terminal error state."""

    def __init__(self, job: str, error: dict):
        kind = error.get("kind", "error")
        message = error.get("message", "")
        super().__init__(f"job {job} failed: {kind}: {message}")
        self.job = job
        self.error = error


class JobCancelled(JobFailed):
    """A waited-on job was cancelled."""

    def __init__(self, job: str):
        Exception.__init__(self, f"job {job} was cancelled")
        self.job = job
        self.error = {"kind": "cancelled"}


class ServeClient:
    """Blocking client for one server address."""

    def __init__(self, host: str, port: int,
                 timeout: float = DEFAULT_HTTP_TIMEOUT):
        self.host = host
        self.port = int(port)
        self.timeout = timeout

    @classmethod
    def from_address(cls, address: str,
                     timeout: float = DEFAULT_HTTP_TIMEOUT
                     ) -> "ServeClient":
        """Parse ``host:port`` (or ``http://host:port``)."""
        address = address.strip()
        for prefix in ("http://", "https://"):
            if address.startswith(prefix):
                address = address[len(prefix):]
        address = address.rstrip("/")
        host, sep, port = address.rpartition(":")
        if not sep or not port.isdigit():
            raise ValueError(
                f"server address must be host:port, got {address!r}")
        return cls(host or "127.0.0.1", int(port), timeout=timeout)

    # -- low-level ------------------------------------------------------------

    def _request(self, method: str, path: str,
                 body: Optional[dict] = None,
                 timeout: Optional[float] = None) -> dict:
        conn = http.client.HTTPConnection(
            self.host, self.port,
            timeout=self.timeout if timeout is None else timeout)
        try:
            payload = (json.dumps(body).encode("utf-8")
                       if body is not None else None)
            conn.request(method, path, body=payload,
                         headers={"Content-Type": "application/json"}
                         if payload else {})
            response = conn.getresponse()
            data = response.read()
            try:
                decoded = json.loads(data.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                raise ClientError(response.status,
                                  "non-JSON response") from None
            if response.status >= 400 and response.status != 408:
                raise ClientError(
                    response.status,
                    decoded.get("error", data.decode("utf-8", "replace"))
                    if isinstance(decoded, dict) else str(decoded))
            return decoded
        finally:
            conn.close()

    # -- job API --------------------------------------------------------------

    def submit(self, spec: JobSpec) -> Tuple[str, bool]:
        """Submit; returns (job id, coalesced-onto-existing-run)."""
        reply = self._request("POST", "/jobs", body=spec.to_dict())
        return reply["job"], bool(reply.get("coalesced"))

    def status(self, job: str, payload: bool = False) -> dict:
        query = "?payload=1" if payload else ""
        return self._request("GET", f"/jobs/{job}{query}")

    def wait(self, job: str, timeout: Optional[float] = None,
             payload: bool = False) -> dict:
        """Block until *job* finishes; return its full description.

        Raises :class:`TimeoutError` if *timeout* expires,
        :class:`JobFailed`/:class:`JobCancelled` on terminal failures.
        """
        query = "?payload=1" if payload else "?payload=0"
        if timeout is not None:
            query += f"&timeout={timeout}"
        info = self._request(
            "GET", f"/jobs/{job}/wait{query}",
            timeout=(self.timeout + timeout
                     if timeout is not None else None))
        if info.get("timed_out"):
            raise TimeoutError(f"job {job} still "
                               f"{info.get('state')} after {timeout}s")
        if info.get("state") == "error":
            raise JobFailed(job, info.get("error", {}))
        if info.get("state") == "cancelled":
            raise JobCancelled(job)
        return info

    def report(self, job: str, timeout: Optional[float] = None) -> dict:
        """Wait and return just the profile report."""
        return self.wait(job, timeout=timeout)["report"]

    def result_payload(self, info: dict) -> dict:
        """Unpickle the worker payload from a ``payload=True`` wait.

        Trust required: unpickling executes arbitrary callables from
        the server.  Only use against servers you control.
        """
        return pickle.loads(base64.b64decode(info["payload"]))

    def cancel(self, job: str) -> dict:
        return self._request("POST", f"/jobs/{job}/cancel")

    def submit_and_wait(self, spec: JobSpec,
                        timeout: Optional[float] = None,
                        payload: bool = False) -> dict:
        job, _coalesced = self.submit(spec)
        return self.wait(job, timeout=timeout, payload=payload)

    def stream(self, job: str,
               after: int = -1) -> Iterator[dict]:
        """Yield NDJSON events until the job's terminal event.

        Closing the generator (or abandoning it) closes the
        connection; the server keeps running the job either way.
        """
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            conn.request("GET", f"/jobs/{job}/events?after={after}")
            response = conn.getresponse()
            if response.status >= 400:
                body = response.read().decode("utf-8", "replace")
                try:
                    message = json.loads(body).get("error", body)
                except ValueError:
                    message = body
                raise ClientError(response.status, message)
            while True:
                line = response.readline()
                if not line:
                    return
                event = json.loads(line.decode("utf-8"))
                yield event
                if event.get("state") in TERMINAL_STATES:
                    return
        finally:
            conn.close()

    # -- server API -----------------------------------------------------------

    def stats(self) -> dict:
        return self._request("GET", "/stats")

    def healthy(self) -> bool:
        try:
            return bool(self._request("GET", "/healthz").get("ok"))
        except (ClientError, OSError, socket.timeout):
            return False

    def shutdown(self, drain: bool = True,
                 timeout: Optional[float] = None) -> dict:
        return self._request(
            "POST", f"/shutdown?drain={'1' if drain else '0'}",
            timeout=timeout)


def run_suite_via_server(workloads, profilers, server: str,
                         scale: float = 1.0,
                         max_cycles: int = 10_000_000,
                         sanitize: bool = False,
                         timeout: Optional[float] = None,
                         sim: str = "fast",
                         verbose: bool = False):
    """Run a suite as clients of *server* (``host:port``).

    Named suite benchmarks become job submissions (duplicates coalesce
    server-side and hit the simulation cache); workloads the server
    cannot rebuild by name run locally.  Returns a
    :class:`~repro.harness.runner.SuiteResult` bit-identical to a local
    run.
    """
    from ..cpu.core import MaxCyclesExceeded
    from ..harness.runner import SuiteResult, run_workload
    from ..parallel.pool import JobFailure
    from ..parallel.suite import rebuild_result
    from ..workloads.suite import BENCHMARKS

    client = ServeClient.from_address(server)
    configs = tuple(profilers)
    submitted: List[Tuple[str, str]] = []  # (benchmark, job id)
    local = []
    for workload in workloads:
        if workload.name not in BENCHMARKS:
            local.append(workload)
            continue
        spec = JobSpec(
            program=ProgramSpec(kind="workload", source=workload.name,
                                name=workload.name, scale=scale),
            profilers=configs, max_cycles=max_cycles,
            sanitize=sanitize, sim=sim, timeout=timeout)
        job, coalesced = client.submit(spec)
        if verbose:
            note = " (coalesced)" if coalesced else ""
            print(f"[suite] {workload.name} -> job {job}{note}",
                  flush=True)
        submitted.append((workload.name, job))

    results: Dict[str, object] = {}
    failures: Dict[str, JobFailure] = {}
    by_name = {workload.name: workload for workload in workloads}
    for name, job in submitted:
        try:
            info = client.wait(job, timeout=timeout, payload=True)
        except JobFailed as exc:
            failures[name] = JobFailure(
                name, exc.error.get("kind", "error"),
                exc.error.get("attempts", 1),
                exc.error.get("message", ""))
            continue
        payload = client.result_payload(info)
        results[name] = rebuild_result(by_name[name], configs, payload)
    for workload in local:
        if verbose:
            print(f"[suite] running {workload.name} locally ...",
                  flush=True)
        try:
            results[workload.name] = run_workload(
                workload, configs, max_cycles, sanitize=sanitize,
                sim=sim)
        except MaxCyclesExceeded as exc:
            failures[workload.name] = JobFailure(
                workload.name, "max-cycles", 1, str(exc))
    ordered = {workload.name: results[workload.name]
               for workload in workloads if workload.name in results}
    return SuiteResult(ordered, failures=failures)
