"""End-to-end tests of the profiling job server (repro.serve).

Real server on a background thread, real worker processes, real HTTP
clients -- these tests exercise the full submit/wait/cancel/stream
lifecycle, content-key dedup, the NDJSON event protocol, /stats
accounting, graceful shutdown, and the CLI verbs.
"""

from __future__ import annotations

import http.client
import json
import threading

import pytest
from conftest import COUNT_LOOP

from repro.analysis import Granularity
from repro.cli import main
from repro.harness import run_suite
from repro.serve import JobSpec, execute_job, job_key, profile_report
from repro.serve.client import ClientError, JobCancelled
from repro.serve.testing import Fault, FaultyPool, running_server
from repro.workloads import build_suite


def loop_spec(n: int = 60, period: int = 7, **kwargs) -> JobSpec:
    return JobSpec.for_source(COUNT_LOOP.format(n=n),
                              name=f"loop{n}.s", period=period,
                              **kwargs)


def normalized(report: dict) -> str:
    """Canonical JSON with the cache-hit flag masked out."""
    return json.dumps(dict(report, cached=False), sort_keys=True)


# -- submit / wait round-trip -------------------------------------------------


def test_submit_wait_matches_direct_run():
    spec = loop_spec(policies=("TIP", "NCI"))
    direct = execute_job(spec)["report"]
    with running_server(cache=None) as handle:
        client = handle.client()
        job, coalesced = client.submit(spec)
        assert not coalesced
        info = client.wait(job, timeout=120)
        assert info["state"] == "done"
        assert normalized(info["report"]) == normalized(direct)


def test_result_payload_rebuilds_full_result():
    spec = loop_spec(n=40, policies=("TIP",))
    with running_server(cache=None) as handle:
        client = handle.client()
        info = client.submit_and_wait(spec, timeout=120, payload=True)
        payload = client.result_payload(info)
    from repro.parallel.suite import rebuild_result
    from repro.workloads.generator import Workload
    from repro.serve import resolve_program
    program, premapped = resolve_program(spec.program)
    workload = Workload(name="loop40.s", program=program,
                        premapped=premapped)
    result = rebuild_result(workload, list(spec.profilers), payload)
    assert normalized(profile_report(result)) \
        == normalized(info["report"])


# -- dedup --------------------------------------------------------------------


def test_eight_concurrent_duplicates_coalesce_to_one_simulation():
    spec = loop_spec(n=200, policies=("TIP",))
    clients = 8
    outputs = [None] * clients

    with running_server(cache=None, workers=2) as handle:

        def one(i: int) -> None:
            client = handle.client(timeout=120)
            job, coalesced = client.submit(spec)
            info = client.wait(job, timeout=120)
            outputs[i] = (job, coalesced, info["report"])

        threads = [threading.Thread(target=one, args=(i,))
                   for i in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        stats = handle.client().stats()

    assert all(out is not None for out in outputs)
    assert len({job for job, _, _ in outputs}) == 1
    assert len({normalized(report)
                for _, _, report in outputs}) == 1
    # The first submission wins the race; everyone else coalesces.
    assert sum(1 for _, coalesced, _ in outputs if coalesced) \
        == clients - 1
    assert stats["cache"]["simulations"] == 1
    assert stats["dedup"]["submissions"] == clients
    assert stats["dedup"]["coalesced"] == clients - 1


def test_distinct_jobs_share_the_simulation_cache(tmp_path):
    # Same program, different replay-side period: distinct job keys,
    # one shared simulation key -> the second job replays the cached
    # trace instead of re-simulating.
    first = loop_spec(n=80, period=7, policies=("TIP",))
    second = loop_spec(n=80, period=11, policies=("TIP",))
    sim1, key1 = job_key(first)
    sim2, key2 = job_key(second)
    assert sim1 == sim2 and key1 != key2

    with running_server(cache=str(tmp_path)) as handle:
        client = handle.client()
        job1 = client.submit(first)[0]
        client.wait(job1, timeout=120)
        job2 = client.submit(second)[0]
        client.wait(job2, timeout=120)
        stats = handle.client().stats()

    assert job1 != job2
    assert stats["cache"]["simulations"] == 1
    assert stats["cache"]["hits"] == 1
    assert stats["dedup"]["coalesced"] == 0


def test_served_jobs_keep_the_cache_budget(tmp_path):
    """Workers record into the server's cache with its size budget, not
    into a default-budget cache at the same root."""
    from repro.simfast import SimCache
    budget = 120_000  # fits either trace alone, not both
    cache = SimCache(str(tmp_path), max_bytes=budget)
    with running_server(cache=cache, workers=1) as handle:
        client = handle.client()
        for name in ("namd", "fotonik3d"):
            spec = JobSpec.for_benchmark(name, scale=0.02, period=13,
                                         policies=("TIP",))
            info = client.submit_and_wait(spec, timeout=120)
            assert info["state"] == "done", info
    assert cache.stats()["entries"] == 1
    assert cache.stats()["bytes"] <= budget


@pytest.mark.parametrize("spec", [
    loop_spec(n=50, policies=("TIP",)),
    JobSpec.for_benchmark("lbm", scale=0.05, period=29,
                          policies=("TIP",)),
], ids=["asm", "workload"])
def test_job_key_is_the_cache_key_the_run_fills(tmp_path, spec):
    from repro.simfast import SimCache
    execute_job(spec, cache=str(tmp_path))
    assert SimCache(str(tmp_path)).keys() == [job_key(spec)[0]]


def test_corrupt_cache_entry_recovers_and_warns_the_client(tmp_path):
    # A second job sharing the first's simulation key replays the
    # cached trace; if that entry was tampered with (checksum intact,
    # bytes undecodable) the worker evicts it, warns, re-simulates --
    # and the warning reaches the client instead of a traceback.
    from test_simfast import _forge_corrupt_entry
    from repro.simfast import SimCache
    first = loop_spec(n=80, period=7, policies=("TIP",))
    second = loop_spec(n=80, period=11, policies=("TIP",))
    with running_server(cache=str(tmp_path)) as handle:
        client = handle.client()
        client.submit_and_wait(first, timeout=120)
        cache = SimCache(str(tmp_path))
        key, = cache.keys()
        _forge_corrupt_entry(cache, key)
        info = client.submit_and_wait(second, timeout=120)
        stats = handle.client().stats()
    assert info["state"] == "done"
    assert any("evicted corrupt simulation-cache entry" in warning
               for warning in info["warnings"])
    direct = execute_job(second)["report"]
    assert normalized(info["report"]) == normalized(direct)
    # Both jobs simulated (the corrupt hit was abandoned).
    assert stats["cache"]["simulations"] == 2


# -- the async pool -----------------------------------------------------------


def _double(value):
    return value * 2


@pytest.fixture
def pool_never_sleeps(monkeypatch):
    """``asyncio.sleep`` fails while the test runs: an attempt must wake
    on its worker's result pipe, its exit or its deadline, never on a
    timer.  The pool imports ``asyncio`` inside its async face, so the
    patch goes on the module itself."""
    import asyncio

    async def no_sleep(delay, result=None):
        raise AssertionError(f"the async pool slept {delay} s")

    monkeypatch.setattr(asyncio, "sleep", no_sleep)


@pytest.mark.usefixtures("pool_never_sleeps")
def test_async_pool_wakes_on_worker_events():
    import asyncio
    import time

    from repro.parallel.pool import PoolJob
    from repro.serve import AsyncPool, PoolError

    pool = AsyncPool(workers=2, retries=0)

    async def failure(job):
        with pytest.raises(PoolError) as raised:
            await pool.run(job)
        return raised.value.failure

    async def scenario():
        result = await pool.run(PoolJob("ok", _double, (21,)))
        start = time.monotonic()
        hung = await failure(PoolJob("hangs", _double, (1,), timeout=0.5,
                                     inject="hang"))
        elapsed = time.monotonic() - start
        died = await failure(PoolJob("dies", _double, (1,), inject="die"))
        return result, hung, elapsed, died

    result, hung, elapsed, died = asyncio.run(scenario())
    assert result == 42
    assert hung.kind == "timeout" and 0.5 <= elapsed < 3.0
    assert died.kind == "crash"
    assert "86" in died.message
    assert pool.spawned == 3 and pool.active == 0


# -- events -------------------------------------------------------------------


def test_ndjson_stream_is_ordered_and_replayable():
    spec = loop_spec(n=30, policies=("TIP",))
    with running_server(cache=None) as handle:
        client = handle.client()
        job = client.submit(spec)[0]
        client.wait(job, timeout=120)
        events = list(client.stream(job))
        # Resume mid-history with ?after=.
        tail = list(client.stream(job, after=events[0]["seq"]))

    assert [event["seq"] for event in events] \
        == list(range(len(events)))
    assert events[0]["event"] == "queued"
    assert events[-1]["state"] == "done"
    states = [event["state"] for event in events]
    assert "running" in states
    assert all(event["job"] == job for event in events)
    assert tail == events[1:]


# -- error handling -----------------------------------------------------------


def test_http_error_surface():
    with running_server(cache=None) as handle:
        client = handle.client()
        with pytest.raises(ClientError) as bad_spec:
            client._request("POST", "/jobs", body={"program": "nope"})
        assert bad_spec.value.status == 400
        with pytest.raises(ClientError) as unresolvable:
            client.submit(JobSpec.for_benchmark("nosuchbench"))
        assert unresolvable.value.status == 400
        with pytest.raises(ClientError) as missing:
            client.status("nope-1")
        assert missing.value.status == 404
        with pytest.raises(ClientError) as route:
            client._request("GET", "/frobnicate")
        assert route.value.status == 404
        assert client.healthy()


def test_max_cycles_is_a_job_error_not_a_retry():
    from dataclasses import replace
    spec = replace(loop_spec(n=5000, policies=("TIP",)),
                   max_cycles=100)
    with running_server(cache=None) as handle:
        client = handle.client()
        job = client.submit(spec)[0]
        from repro.serve.client import JobFailed
        with pytest.raises(JobFailed) as failed:
            client.wait(job, timeout=120)
        stats = handle.client().stats()
    assert failed.value.error["kind"] == "max-cycles"
    # Deterministic failure: executed once, never retried.
    assert stats["pool"]["retried"] == 0


# -- cancel -------------------------------------------------------------------


def test_cancel_then_resubmit_gets_a_fresh_run():
    spec = loop_spec(n=40, policies=("TIP",))
    pool = FaultyPool(workers=1,
                      faults=(Fault("slow-start", delay=30.0),))
    with running_server(pool=pool, cache=None) as handle:
        client = handle.client()
        job = client.submit(spec)[0]
        reply = client.cancel(job)
        assert reply["cancelled"] and reply["state"] == "cancelled"
        with pytest.raises(JobCancelled):
            client.wait(job, timeout=30)
        # The key was released: a resubmission is a fresh job.
        pool.faults.clear()
        job2, coalesced = client.submit(spec)
        assert job2 != job and not coalesced
        info = client.wait(job2, timeout=120)
        assert info["state"] == "done"
    assert pool.active == 0


# -- shutdown -----------------------------------------------------------------


def test_graceful_shutdown_drains_the_queue():
    specs = [loop_spec(n=n, policies=("TIP",)) for n in (25, 35, 45)]
    with running_server(cache=None, workers=2) as handle:
        client = handle.client()
        jobs = [client.submit(spec)[0] for spec in specs]
        summary = handle.shutdown(drain=True)
        server = handle.server
        assert all(server.jobs[job].state == "done" for job in jobs)
        assert all(server.jobs[job].report is not None for job in jobs)
        assert set(summary["jobs"]) == set(jobs)
        assert set(summary["jobs"].values()) == {"done"}
    # The listener is closed: new connections are refused.
    with pytest.raises(OSError):
        conn = http.client.HTTPConnection(*handle.address, timeout=5)
        try:
            conn.request("GET", "/healthz")
            conn.getresponse()
        finally:
            conn.close()


# -- suite routing ------------------------------------------------------------


def test_run_suite_via_server_is_bit_identical():
    workloads = build_suite(["exchange2"], scale=0.05)
    from repro.harness import default_profilers
    profilers = default_profilers(29, policies=("TIP", "NCI"))
    local = run_suite(workloads, profilers=profilers, scale=0.05,
                      sim="fast")
    with running_server(cache=None) as handle:
        served = run_suite(workloads, profilers=profilers, scale=0.05,
                           sim="fast", server=handle.address_str)
    assert served.ok
    assert served.errors(Granularity.INSTRUCTION) \
        == local.errors(Granularity.INSTRUCTION)
    assert served["exchange2"].stats.to_dict() \
        == local["exchange2"].stats.to_dict()


# -- CLI ----------------------------------------------------------------------


def test_cli_submit_roundtrip(tmp_path, capsys):
    source = tmp_path / "prog.s"
    source.write_text(COUNT_LOOP.format(n=50))
    with running_server(cache=None) as handle:
        assert main(["submit", str(source), "--server",
                     handle.address_str, "--period", "7",
                     "--stream"]) == 0
        captured = capsys.readouterr()
        assert "instruction error" in captured.out
        assert "TIP" in captured.out
        assert '"event": "queued"' in captured.err
        assert main(["submit", "--server", handle.address_str,
                     "--stats"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["cache"]["simulations"] == 1


def test_cli_submit_usage_errors(capsys):
    with running_server(cache=None) as handle:
        assert main(["submit", "nosuchthing", "--server",
                     handle.address_str]) == 2
        assert "unknown target" in capsys.readouterr().err
        assert main(["submit", "--server",
                     handle.address_str]) == 2
        assert "required" in capsys.readouterr().err
    assert main(["submit", "mcf", "--server", "notanaddress"]) == 2
