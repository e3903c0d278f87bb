"""Parallel subsystem tests: pool, parallel suite, golden replay.

The golden-trace harness replays a small recorded v3 trace, checked in
under ``tests/data/`` with the expected per-instruction profiles of all
seven sampling profilers, and requires the replay to reproduce them
bit-for-bit.
"""

import json
import multiprocessing
import os
import time

import pytest

from conftest import oracle_tables
from repro.analysis.profiles import profile_checksum
from repro.core.oracle import OracleProfiler
from repro.cpu.core import CoreStats
from repro.fastpath import replay_blocks
from repro.harness import (POLICIES, ProfilerConfig, default_profilers,
                           replay_experiment, run_suite)
from repro.isa import assemble
from repro.kernel import Kernel
from repro.lint import TraceSanitizer
from repro.parallel import INJECT_KINDS, PoolJob, run_jobs
from repro.workloads.suite import build_suite

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


# -- golden-trace differential harness ----------------------------------------


@pytest.fixture(scope="module")
def golden():
    with open(os.path.join(DATA, "golden.tiptrace"), "rb") as handle:
        trace = handle.read()
    with open(os.path.join(DATA, "golden_expected.json")) as handle:
        expected = json.load(handle)
    with open(os.path.join(DATA, "golden.s")) as handle:
        source = handle.read()
    image = Kernel().boot(assemble(source, name="golden.s"))
    configs = tuple(ProfilerConfig(policy, expected["period"],
                                   expected["mode"], expected["seed"])
                    for policy in POLICIES)
    return trace, expected, image, configs


def _check_against_golden(result, expected):
    assert result.oracle.total_cycles == expected["cycles"]
    assert set(result.profilers) == set(expected["profilers"])
    for name, want in expected["profilers"].items():
        profiler = result.profilers[name]
        assert len(profiler.samples) == want["samples"], name
        assert profile_checksum(profiler.samples) == want["checksum"], \
            f"{name}: sample stream diverged from golden trace"
        profile = {hex(addr): weight
                   for addr, weight in profiler.profile().items()}
        assert profile == want["profile"], name


def test_serial_replay_matches_golden(golden):
    trace, expected, image, configs = golden
    result = replay_experiment(trace, image, configs)
    assert result.stats is None
    _check_against_golden(result, expected)
    oracle = {hex(addr): weight
              for addr, weight in result.oracle.profile.items()}
    assert oracle == expected["oracle_profile"]


def _fresh_observers(image, configs):
    """(label -> profiler, watching Oracle, sanitizer), all new."""
    profilers = {config.name: config.build(image) for config in configs}
    oracle = OracleProfiler(image,
                            watch_schedules=[configs[0].schedule_clone()])
    return profilers, oracle, TraceSanitizer(program=image)


def test_observers_share_no_trace_state(golden):
    """Two fresh instances of every registered policy, the Oracle and
    the sanitizer share one block replay, and each equals a solo
    replay and the golden.  An observer that kept trace state on its
    class or in its module would see every cycle twice here, as it
    would lose it across pooled and served runs."""
    trace, expected, image, configs = golden
    pair = [_fresh_observers(image, configs) for _ in range(2)]
    side_by_side = [observer for profilers, oracle, sanitizer in pair
                    for observer in (*profilers.values(), oracle,
                                     sanitizer)]
    assert replay_blocks(trace, *side_by_side) == expected["cycles"]
    solo = _fresh_observers(image, configs)
    solo_profilers, solo_oracle, solo_sanitizer = solo
    assert replay_blocks(trace, *solo_profilers.values(), solo_oracle,
                         solo_sanitizer) == expected["cycles"]
    assert set(solo_profilers) == set(POLICIES)
    oracle_profile = {hex(addr): weight for addr, weight
                      in solo_oracle.report.profile.items()}
    assert oracle_profile == expected["oracle_profile"]
    for profilers, oracle, sanitizer in (*pair, solo):
        for name, want in expected["profilers"].items():
            assert profile_checksum(profilers[name].samples) == \
                want["checksum"], name
        assert oracle_tables(oracle.report) == \
            oracle_tables(solo_oracle.report)
        assert sanitizer.ok, sanitizer.report()
        assert sanitizer.cycles_checked == expected["cycles"]
        assert sanitizer.commits_checked == expected["committed"]


@pytest.mark.parametrize("version", [1, 2])
def test_legacy_trace_is_rejected(golden, version):
    """Legacy traces are not replayed; the error names the upgrade
    path."""
    _trace, _expected, image, configs = golden
    path = os.path.join(DATA, f"golden_v{version}.tiptrace")
    with pytest.raises(ValueError, match="repro convert-trace"):
        replay_experiment(path, image, configs)


# -- sanitizer: attached once per trace ---------------------------------------


def test_sanitizer_attached_once_per_replay(golden):
    """Regression: one replay pass drives all profilers AND the
    sanitizer, so its counters equal the trace length -- attaching it
    per profiler pass would multiply them by the profiler count."""
    trace, expected, image, configs = golden
    result = replay_experiment(trace, image, configs, sanitize=True)
    assert len(result.profilers) == len(POLICIES)
    assert result.sanitizer is not None
    assert result.sanitizer.cycles_checked == expected["cycles"]
    assert result.sanitizer.commits_checked == expected["committed"]
    assert result.sanitizer.ok


# -- process pool: failure injection ------------------------------------------


def _double(value):
    return value * 2


def _slow_ok(value):
    time.sleep(0.05)
    return value


@pytest.fixture
def parent_never_sleeps(monkeypatch):
    """``time.sleep`` fails in this process only.  The pool must wake on
    worker events and deadlines, never on a timer; forked workers (the
    ``hang`` injection, :func:`_slow_ok`) inherit the patch and still
    sleep."""
    parent = os.getpid()
    sleep = time.sleep

    def guarded(seconds):
        if os.getpid() == parent:
            raise AssertionError(f"the pool parent slept {seconds} s")
        sleep(seconds)

    monkeypatch.setattr(time, "sleep", guarded)


@pytest.mark.usefixtures("parent_never_sleeps")
def test_pool_runs_jobs_and_reports_attempts():
    jobs = [PoolJob(f"j{i}", _double, (i,)) for i in range(4)]
    report = run_jobs(jobs, workers=2)
    assert report.ok and not report.degraded
    assert report.results == {f"j{i}": 2 * i for i in range(4)}
    assert all(report.attempts[f"j{i}"] == 1 for i in range(4))


@pytest.mark.parametrize("kind", INJECT_KINDS)
@pytest.mark.usefixtures("parent_never_sleeps")
def test_pool_failure_injection_yields_clean_report(kind):
    """A worker that raises, hangs past its timeout, or dies mid-job is
    retried and then reported -- never a hung suite or a poisoned
    results dict."""
    jobs = [
        PoolJob("good", _double, (21,)),
        PoolJob("bad", _double, (1,), timeout=0.5, inject=kind),
    ]
    start = time.monotonic()
    report = run_jobs(jobs, workers=2, retries=1)
    elapsed = time.monotonic() - start
    assert elapsed < 10  # the hang case must be bounded by the timeout
    assert report.results == {"good": 42}
    assert set(report.failures) == {"bad"}
    failure = report.failures["bad"]
    assert failure.attempts == 2  # first try + one retry
    expected_kind = {"raise": "exception", "hang": "timeout",
                     "die": "crash"}[kind]
    assert failure.kind == expected_kind
    assert "bad" in str(failure)


@pytest.mark.usefixtures("parent_never_sleeps")
def test_pool_retry_then_succeed():
    job = PoolJob("flaky", _double, (5,), inject="raise",
                  inject_attempts=frozenset({0}))
    report = run_jobs([job], workers=2, retries=2)
    assert report.ok
    assert report.results == {"flaky": 10}
    assert report.attempts["flaky"] == 2


@pytest.mark.usefixtures("parent_never_sleeps")
def test_pool_crash_exit_code_reported():
    job = PoolJob("dies", _double, (1,), inject="die")
    report = run_jobs([job], workers=2, retries=0)
    assert "86" in report.failures["dies"].message


@pytest.mark.usefixtures("parent_never_sleeps")
def test_pool_hang_ends_at_its_deadline():
    job = PoolJob("hangs", _double, (1,), timeout=0.5, inject="hang")
    start = time.monotonic()
    report = run_jobs([job], workers=2, retries=0)
    elapsed = time.monotonic() - start
    assert report.failures["hangs"].kind == "timeout"
    assert 0.5 <= elapsed < 3.0


class _RacingProcess:
    """A worker that finished just as the parent looked: it sends its
    result only when asked ``is_alive()``, then reports itself dead --
    the order in which a real worker can race an empty poll of its
    result pipe."""

    exitcode = 0

    def __init__(self, target, args, daemon):
        from multiprocessing.connection import Connection
        conn, self.func, self.args, _inject = args
        # The worker's end of the pipe outlives the parent's close of
        # its copy, as in a forked child.
        self.conn = Connection(os.dup(conn.fileno()), readable=False)
        # A pipe at end-of-file: ready at once, like a dead worker's
        # sentinel.
        self.sentinel, write = os.pipe()
        os.close(write)

    def start(self):
        pass

    def is_alive(self):
        if not self.conn.closed:
            self.conn.send(("ok", self.func(*self.args)))
            self.conn.close()
        return False

    def terminate(self):
        pass

    def join(self, timeout=None):
        pass

    def close(self):
        os.close(self.sentinel)


class _RacingContext:
    Pipe = staticmethod(multiprocessing.Pipe)
    Process = _RacingProcess


@pytest.mark.usefixtures("parent_never_sleeps")
def test_pool_result_that_races_the_exit_is_not_a_crash(monkeypatch):
    import repro.parallel.pool as pool_mod
    monkeypatch.setattr(pool_mod, "_pool_context", _RacingContext)
    report = run_jobs([PoolJob("raced", _double, (4,))], workers=2,
                      retries=0)
    assert report.ok, report.failures
    assert report.results == {"raced": 8}
    assert report.attempts == {"raced": 1}


def test_pool_serial_degradation():
    jobs = [PoolJob(f"j{i}", _double, (i,)) for i in range(3)]
    report = run_jobs(jobs, workers=1)
    assert report.results == {f"j{i}": 2 * i for i in range(3)}
    assert not report.degraded  # workers=1 is serial by request
    report = run_jobs(jobs, workers=0)
    assert report.degraded  # workers=0 means "no pool available"
    assert report.results == {f"j{i}": 2 * i for i in range(3)}


@pytest.mark.usefixtures("parent_never_sleeps")
def test_pool_many_jobs_few_workers():
    jobs = [PoolJob(f"j{i}", _slow_ok, (i,)) for i in range(6)]
    report = run_jobs(jobs, workers=2)
    assert report.ok
    assert report.results == {f"j{i}": i for i in range(6)}


class _UnstartableProcess:
    """A worker that cannot start, as where the platform forbids it."""

    def __init__(self, target, args, daemon):
        pass

    def start(self):
        raise OSError("cannot start a worker process")


class _UnstartableContext:
    Pipe = staticmethod(multiprocessing.Pipe)
    Process = _UnstartableProcess


def test_pool_degrades_when_no_worker_starts(monkeypatch):
    import repro.parallel.pool as pool_mod
    monkeypatch.setattr(pool_mod, "_pool_context", _UnstartableContext)
    jobs = [PoolJob(f"j{i}", _double, (i,)) for i in range(3)]
    report = run_jobs(jobs, workers=2)
    assert report.ok and report.degraded
    assert report.results == {f"j{i}": 2 * i for i in range(3)}


def test_async_pool_degrades_when_no_worker_starts(monkeypatch):
    import asyncio

    import repro.parallel.pool as pool_mod
    from repro.parallel.pool import AsyncPool
    monkeypatch.setattr(pool_mod, "_pool_context", _UnstartableContext)
    pool = AsyncPool(workers=2)

    async def scenario():
        return await asyncio.gather(
            *(pool.run(PoolJob(f"j{i}", _double, (i,))) for i in range(3)))

    assert asyncio.run(scenario()) == [0, 2, 4]
    assert pool.degraded and pool.spawned == 0


def test_blocking_pool_does_not_import_asyncio():
    """``asyncio`` loads ``ssl`` and adds about 2.7 MB of resident
    memory, so only the pool's async face may import it."""
    import subprocess
    import sys
    code = "\n".join([
        "import sys",
        "import repro",
        "from repro.parallel import PoolJob, run_jobs",
        "jobs = [PoolJob(f'j{n}', abs, (-n,)) for n in (1, 2)]",
        "report = run_jobs(jobs, workers=2)",
        "assert report.results == {'j1': 1, 'j2': 2}, report",
        "assert not report.degraded, report",
        "assert 'asyncio' not in sys.modules, 'asyncio was imported'",
    ])
    done = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


# -- parallel suite -----------------------------------------------------------


def test_parallel_suite_matches_serial():
    scale = 0.05
    workloads = build_suite(["exchange2", "lbm"], scale=scale)
    configs = default_profilers(29, policies=tuple(POLICIES))
    serial = run_suite(workloads, profilers=configs, scale=scale)
    parallel = run_suite(workloads, profilers=configs, scale=scale,
                         jobs=2, sanitize=True)
    assert parallel.ok and not parallel.failures
    assert list(parallel.results) == list(serial.results)
    for name in serial.results:
        for label, profiler in serial.results[name].profilers.items():
            assert profile_checksum(profiler.samples) == \
                profile_checksum(
                    parallel.results[name].profilers[label].samples), \
                f"{name}/{label}"
        assert parallel.results[name].stats.cycles == \
            serial.results[name].stats.cycles
        assert oracle_tables(parallel.results[name].oracle) == \
            oracle_tables(serial.results[name].oracle), name
        assert parallel.results[name].sanitizer.ok


def test_parallel_suite_reports_worker_failure(monkeypatch):
    scale = 0.05
    workloads = build_suite(["exchange2"], scale=scale)
    import repro.parallel.suite as suite_mod
    from repro.parallel.pool import JobFailure, PoolReport

    def all_fail(jobs, workers, retries=1, **kwargs):
        return PoolReport(failures={
            job.name: JobFailure(job.name, "timeout", retries + 1,
                                 "no result")
            for job in jobs})

    monkeypatch.setattr(suite_mod, "run_jobs", all_fail)
    result = run_suite(workloads, profilers=default_profilers(29),
                       scale=scale, jobs=2)
    assert not result.ok
    assert set(result.failures) == {"exchange2"}
    assert "exchange2" not in result.results


def _run_stats(result):
    """Core statistics minus the fields that say how the run was driven."""
    return {name: value for name, value in result.stats.to_dict().items()
            if name not in CoreStats.DRIVER_FIELDS}


def _assert_same_results(pooled, serial):
    """Core statistics, every Oracle table and every sample stream,
    exactly."""
    assert pooled.ok and serial.ok
    assert list(pooled.results) == list(serial.results)
    for name, want in serial.results.items():
        got = pooled.results[name]
        assert _run_stats(got) == _run_stats(want), name
        assert oracle_tables(got.oracle) == oracle_tables(want.oracle), name
        for label, profiler in want.profilers.items():
            assert profile_checksum(got.profilers[label].samples) == \
                profile_checksum(profiler.samples), f"{name}/{label}"


@pytest.fixture(scope="module")
def namd():
    return build_suite(["namd"], scale=0.02)


@pytest.fixture(scope="module")
def sweep_pair():
    """One Compute and one Stall benchmark, small enough to pool fast."""
    return build_suite(["namd", "fotonik3d"], scale=0.02)


def _pool_job_names(monkeypatch):
    """Names of the jobs that reach the pool from the suite runner."""
    import repro.parallel.suite as suite_mod
    names = []
    original = suite_mod.run_jobs

    def recording(jobs, *args, **kwargs):
        names.extend(job.name for job in jobs)
        return original(jobs, *args, **kwargs)

    monkeypatch.setattr(suite_mod, "run_jobs", recording)
    return names


def test_pooled_warm_run_replays_every_hit_in_the_parent(sweep_pair,
                                                         tmp_path,
                                                         monkeypatch):
    configs = default_profilers(13)
    cache = str(tmp_path)
    run_suite(sweep_pair, profilers=configs, sim="fast", cache=cache)
    serial = run_suite(sweep_pair, profilers=configs, sim="fast",
                       cache=cache)
    reached_pool = _pool_job_names(monkeypatch)
    pooled = run_suite(sweep_pair, profilers=configs, sim="fast",
                       cache=cache, jobs=2)
    assert reached_pool == []
    assert all(result.cached for result in pooled.results.values())
    _assert_same_results(pooled, serial)


def test_pooled_run_sends_only_misses_to_workers(sweep_pair, tmp_path,
                                                 monkeypatch):
    hit, miss = sweep_pair
    configs = default_profilers(13)
    cache = str(tmp_path)
    run_suite([hit], profilers=configs, sim="fast", cache=cache)
    serial = run_suite(sweep_pair, profilers=configs, sim="fast")
    reached_pool = _pool_job_names(monkeypatch)
    pooled = run_suite(sweep_pair, profilers=configs, sim="fast",
                       cache=cache, jobs=2)
    assert reached_pool == [miss.name]
    assert [result.cached for result in pooled.results.values()] == \
        [True, False]
    _assert_same_results(pooled, serial)


def test_pooled_run_keeps_the_cache_budget(sweep_pair, tmp_path):
    """Workers record into the parent's cache with its size budget, not
    into a default-budget cache at the same root."""
    from repro.simfast import SimCache
    configs = default_profilers(13)
    budget = 120_000  # fits either trace alone, not both
    serial = SimCache(str(tmp_path / "serial"), max_bytes=budget)
    pooled = SimCache(str(tmp_path / "pooled"), max_bytes=budget)
    run_suite(sweep_pair, profilers=configs, sim="fast", cache=serial)
    run_suite(sweep_pair, profilers=configs, sim="fast", cache=pooled,
              jobs=2)
    assert serial.stats()["entries"] == 1
    assert pooled.stats()["entries"] == 1
    assert pooled.stats()["bytes"] <= budget


def test_pooled_run_keeps_paranoid(sweep_pair, monkeypatch):
    """``paranoid`` reaches the pool workers.  Forked workers inherit
    this patch, so a worker that simulated unchecked would fail."""
    from repro.cpu.machine import Machine
    run = Machine.run

    def checked_only(self, *args, paranoid=False, **kwargs):
        if not paranoid:
            raise AssertionError("simulated without --paranoid")
        return run(self, *args, paranoid=paranoid, **kwargs)

    monkeypatch.setattr(Machine, "run", checked_only)
    pooled = run_suite(sweep_pair, profilers=default_profilers(13),
                       sim="fast", paranoid=True, jobs=2, retries=0)
    assert pooled.ok, pooled.failures
    assert list(pooled.results) == ["namd", "fotonik3d"]


def test_pooled_run_ignores_suite_scale(namd):
    """Workers run the workloads they are given: a pooled run with
    ``scale`` left at its default matches the serial run of the same
    scale-0.02 build."""
    configs = default_profilers(13)
    serial = run_suite(namd, profilers=configs, sim="fast")
    pooled = run_suite(namd, profilers=configs, sim="fast", jobs=2)
    _assert_same_results(pooled, serial)


def test_pooled_run_takes_non_suite_workload():
    from repro.workloads import build_imagick
    workloads = [build_imagick(pixels=40, morph_iters=80)]
    configs = default_profilers(13)
    serial = run_suite(workloads, profilers=configs, sim="fast")
    pooled = run_suite(workloads, profilers=configs, sim="fast", jobs=2)
    _assert_same_results(pooled, serial)


def test_pool_workers_do_not_rebuild(namd, monkeypatch):
    """Forked workers inherit this patch: a worker that rebuilt its
    benchmark by name would fail."""
    import repro.workloads.suite as suite_mod

    def no_build(*args, **kwargs):
        raise AssertionError("a worker rebuilt its workload")

    monkeypatch.setattr(suite_mod, "build", no_build)
    pooled = run_suite(namd, profilers=default_profilers(13), sim="fast",
                       jobs=2, retries=0)
    assert pooled.ok, pooled.failures
    assert list(pooled.results) == ["namd"]


def test_spawned_workers_unpickle_the_workload(namd, monkeypatch):
    """Where the pool cannot fork, workers get the built workload by
    pickle and still match the serial run.  A pool that cannot start a
    worker (say, an unpicklable workload) degrades to running in-process,
    which would match too, so that fallback fails the test here."""
    import multiprocessing

    import repro.parallel.pool as pool_mod
    monkeypatch.setattr(pool_mod, "_pool_context",
                        lambda: multiprocessing.get_context("spawn"))
    configs = default_profilers(13)
    serial = run_suite(namd, profilers=configs, sim="fast")

    def no_fallback(job, report):
        pytest.fail(f"{job.name}: pool degraded to an in-process run")

    monkeypatch.setattr(pool_mod, "_run_serial", no_fallback)
    pooled = run_suite(namd, profilers=configs, sim="fast", jobs=2)
    _assert_same_results(pooled, serial)


# -- fd hygiene: path traces are opened once per reader and closed ------------


def _open_fds():
    return sorted(int(name) for name in os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs procfs")
def test_path_replay_does_not_leak_fds(golden, tmp_path):
    """Regression: replaying a trace from a path used to re-open the
    stream on every chunk rescan.  Readers now open (and mmap) the
    file once, so repeated replays leave the process fd table exactly
    as they found it."""
    from repro.cpu.tracefile import convert_trace

    trace, expected, image, configs = golden
    path = str(tmp_path / "golden_v3.tiptrace")
    convert_trace(trace, path)
    # Warm-up covers lazy imports so the snapshot below only sees
    # replay-owned descriptors.
    replay_experiment(path, image, configs)
    before = _open_fds()
    for _ in range(3):
        result = replay_experiment(path, image, configs)
        _check_against_golden(result, expected)
    assert _open_fds() == before
