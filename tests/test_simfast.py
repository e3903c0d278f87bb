"""Simulation fast path + content-addressed cache tests.

The contract under test: ``sim="fast"``, paranoid mode and a
simulation-cache hit all produce results bit-identical to plain
single-stepping -- the same v3 trace bytes and the same profiler
reports, floating point included.
"""

import io
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.profiles import profile_checksum
from repro.core.oracle import OracleProfiler
from repro.core.profiler import SamplingProfiler
from repro.core.sampling import SampleSchedule
from repro.cpu import (Machine, MaxCyclesExceeded, TraceWriterV3,
                       shifted_record)
from repro.cpu.tracefile import replay_trace
from repro.cpu.trace import TraceCollector
from repro.fastpath import CycleBlock, replay_blocks
from repro.harness.experiment import default_profilers
from repro.harness.runner import run_suite, run_workload
from repro.simfast import SimCache, resolve_cache
from repro.simfast.bench import _result_checksum
from repro.workloads.suite import BENCHMARKS, build_suite

from conftest import ORACLE_FIELDS, make_record, oracle_tables
from test_differential import DATA_BASE, DATA_WORDS, _generate_program

#: Strided loads thrash the data cache, so most cycles are memory
#: stalls -- the fast path's best case.
STALL_HEAVY = """
.func main
    addi x1, x0, 0
    addi x2, x0, 120
loop:
    lw   x3, 0x2000(x1)
    add  x4, x4, x3
    addi x1, x1, 512
    andi x1, x1, 65535
    addi x2, x2, -1
    bne  x2, x0, loop
    halt
"""
STALL_HEAVY_MAP = [(0x2000, 0x2000 + 65536 + 8)]


def _random_program(seed: int):
    from repro.isa.assembler import assemble
    rng = random.Random(seed)
    program = assemble(_generate_program(rng), name=f"fuzz-{seed}")
    for i in range(DATA_WORDS):
        program.data[DATA_BASE + 8 * i] = rng.randint(-100, 100)
    return program


def _trace_of(program, sim, paranoid=False, premapped=None):
    """Run *program* recording a v3 trace in 4-cycle chunks, so chunk
    boundaries land inside fast-forwarded stall runs."""
    machine = Machine(program, premapped_data=premapped or
                      [(DATA_BASE, DATA_BASE + 8 * DATA_WORDS)])
    buffer = io.BytesIO()
    machine.attach(TraceWriterV3(buffer, machine.config.rob_banks,
                                 chunk_cycles=4))
    stats = machine.run(2_000_000, sim=sim, paranoid=paranoid)
    return buffer.getvalue(), stats


# -- fast-forward vs single-stepping ----------------------------------------------


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_fast_step_traces_byte_identical(seed):
    program = _random_program(seed)
    step_trace, step_stats = _trace_of(program, "step")
    fast_trace, fast_stats = _trace_of(program, "fast")
    assert step_trace == fast_trace
    assert step_stats.cycles == fast_stats.cycles
    assert step_stats.committed == fast_stats.committed
    assert step_stats.commit_hist == fast_stats.commit_hist


@pytest.mark.parametrize("seed", range(4))
def test_paranoid_mode_passes(seed):
    """Cross-checked fast-forwarding agrees with stepping everywhere."""
    program = _random_program(seed)
    step_trace, _ = _trace_of(program, "step")
    paranoid_trace, _ = _trace_of(program, "fast", paranoid=True)
    assert step_trace == paranoid_trace


def test_fast_forward_fires_on_stall_heavy_program():
    from repro.isa.assembler import assemble
    program = assemble(STALL_HEAVY, name="stall-heavy")
    step_trace, step_stats = _trace_of(program, "step",
                                       premapped=STALL_HEAVY_MAP)
    fast_trace, fast_stats = _trace_of(program, "fast",
                                       premapped=STALL_HEAVY_MAP)
    assert fast_trace == step_trace
    assert fast_stats.fast_forwarded > 0


#: Benchmarks whose loop memoizer fires at scale 0.05, so the suite
#: check below covers memoized-period blocks as well as stall runs.
MEMOIZED_AT_SMALL_SCALE = ("exchange2", "x264")


@pytest.mark.parametrize("name", BENCHMARKS)
def test_fast_experiment_results_identical(name):
    workload, = build_suite([name], scale=0.05)
    profilers = default_profilers(53)
    r_step = run_workload(workload, profilers)
    r_fast = run_workload(workload, profilers, sim="fast")
    assert oracle_tables(r_step.oracle) == oracle_tables(r_fast.oracle)
    assert {label: profile_checksum(p.samples)
            for label, p in r_step.profilers.items()} == \
        {label: profile_checksum(p.samples)
         for label, p in r_fast.profilers.items()}
    assert _result_checksum(r_step) == _result_checksum(r_fast)
    assert r_fast.stats.fast_forwarded > 0
    if name in MEMOIZED_AT_SMALL_SCALE:
        assert r_fast.stats.steady_state_cycles > 0


def _watched_oracle(image):
    """An Oracle watching a periodic and a seeded random schedule."""
    return OracleProfiler(image, watch_schedules=[
        SampleSchedule(53), SampleSchedule(13, "random", 7)])


@pytest.mark.parametrize("name", ("exchange2", "x264", "mcf"))
def test_watched_oracle_identical_step_fast_and_replayed(name, tmp_path):
    """The harness Oracle watches no schedule, so watched intervals are
    checked here: stepping, ``sim="fast"`` (memoized periods on
    exchange2 and x264, stall fast-forward on mcf) and a block replay
    of the fast run's trace fill every report field alike."""
    workload, = build_suite([name], scale=0.05)
    path = str(tmp_path / f"{name}.tiptrace")
    reports = {}
    for sim in ("step", "fast"):
        machine = Machine(workload.program,
                          premapped_data=workload.premapped)
        oracle = _watched_oracle(machine.image)
        machine.attach(oracle)
        if sim == "fast":
            machine.attach(TraceWriterV3(path, machine.config.rob_banks))
        stats = machine.run(sim=sim)
        reports[sim] = oracle_tables(oracle.report)
    assert stats.fast_forwarded > 0
    if name in MEMOIZED_AT_SMALL_SCALE:
        assert stats.steady_state_cycles > 0
    replayed = _watched_oracle(machine.image)
    replay_blocks(path, replayed)
    # Replay reports the last record's cycle, a run the cycle after.
    replayed.report.total_cycles = stats.cycles
    reports["replayed"] = oracle_tables(replayed.report)
    assert set(reports["step"]) == set(ORACLE_FIELDS)
    assert len(reports["step"]["intervals"]) == 2
    assert all(reports["step"]["intervals"].values())
    assert reports["step"]["watched"]
    assert reports["fast"] == reports["step"]
    assert reports["replayed"] == reports["step"]


class _StallCountingProfiler(SamplingProfiler):
    """A profiler written outside the package: not block native, and
    its ``_update_state`` counts stall cycles, so it is not idempotent
    on identical records.  Each sample names the running count, so the
    profile shows any cycle the profiler was not shown."""

    name = "StallCount"

    def __init__(self, schedule):
        super().__init__(schedule)
        self.stall_cycles = 0

    def _update_state(self, record):
        if not record.committed and not record.rob_empty:
            self.stall_cycles += 1

    def _attribute(self, record):
        return [(self.stall_cycles, 1.0)], None


def test_custom_profiler_sees_every_fast_cycle():
    """Batches reach a per-record profiler through the ``on_block``
    fallback, one ``on_cycle`` per cycle, so ``sim="fast"`` shows it
    exactly the cycles stepping does."""
    workload, = build_suite(["mcf"], scale=0.05)
    seen = {}
    for sim in ("step", "fast"):
        machine = Machine(workload.program,
                          premapped_data=workload.premapped)
        profiler = _StallCountingProfiler(SampleSchedule(53))
        machine.attach(profiler)
        stats = machine.run(sim=sim)
        seen[sim] = (profiler.stall_cycles,
                     profile_checksum(profiler.samples))
    assert stats.fast_forwarded > 0
    assert seen["fast"] == seen["step"]


def test_unknown_sim_mode_rejected():
    program = _random_program(0)
    machine = Machine(program)
    with pytest.raises(ValueError):
        machine.run(100, sim="warp")


# -- stall runs reach the writer as blocks -----------------------------------------


def test_on_stall_run_matches_repeated_on_cycle():
    """One stall-run block == N single-cycle calls, with the run
    crossing chunk boundaries or not."""
    stall = make_record(3, rob_head=0x40, fetch_pc=0x80)
    for chunk_cycles in (1, 4, 5, 64):
        stepped = io.BytesIO()
        writer = TraceWriterV3(stepped, 2, chunk_cycles=chunk_cycles)
        writer.on_cycle(make_record(0, committed=[(0x40, False, False)]))
        writer.on_cycle(make_record(1, dispatched=[0x44]))
        writer.on_cycle(make_record(2))
        for offset in range(10):
            writer.on_cycle(shifted_record(stall, offset))
        writer.on_finish(12)

        batched = io.BytesIO()
        writer = TraceWriterV3(batched, 2, chunk_cycles=chunk_cycles)
        writer.on_cycle(make_record(0, committed=[(0x40, False, False)]))
        writer.on_cycle(make_record(1, dispatched=[0x44]))
        writer.on_cycle(make_record(2))
        writer.on_block(CycleBlock.from_runs([(stall, 10)], 2))
        writer.on_finish(12)
        assert stepped.getvalue() == batched.getvalue(), chunk_cycles


# -- the content-addressed cache ---------------------------------------------------


def test_cache_round_trip_bit_identical(tmp_path):
    workload, = build_suite(["mcf"], scale=0.05)
    profilers = default_profilers(53)
    cache = SimCache(str(tmp_path))
    r_miss = run_workload(workload, profilers, sim="fast", cache=cache)
    assert not r_miss.cached
    assert len(cache.keys()) == 1
    r_hit = run_workload(workload, profilers, sim="fast", cache=cache)
    assert r_hit.cached
    assert _result_checksum(r_miss) == _result_checksum(r_hit)
    assert oracle_tables(r_miss.oracle) == oracle_tables(r_hit.oracle)
    assert r_hit.stats.cycles == r_miss.stats.cycles
    assert r_hit.oracle.total_cycles == r_miss.oracle.total_cycles


def test_cache_verify_and_stats(tmp_path):
    workload, = build_suite(["mcf"], scale=0.05)
    cache = SimCache(str(tmp_path))
    run_workload(workload, default_profilers(53), sim="fast",
                 cache=cache)
    assert all(cache.verify().values())
    info = cache.stats()
    assert info["entries"] == 1 and info["bytes"] > 0
    assert cache.clear() >= 2  # trace + sidecar
    assert cache.keys() == []


def test_cache_corrupt_entry_is_evicted_miss(tmp_path):
    workload, = build_suite(["mcf"], scale=0.05)
    cache = SimCache(str(tmp_path))
    run_workload(workload, default_profilers(53), sim="fast",
                 cache=cache)
    key, = cache.keys()
    trace_path = cache._trace_path(key)
    blob = bytearray(open(trace_path, "rb").read())
    blob[len(blob) // 2] ^= 0xFF
    with open(trace_path, "wb") as fh:
        fh.write(blob)
    assert cache.lookup(key) is None
    assert cache.keys() == []  # evicted on the spot


def test_cache_budget_gate(tmp_path):
    """An entry recorded past the caller's budget cannot hit."""
    workload, = build_suite(["mcf"], scale=0.05)
    cache = SimCache(str(tmp_path))
    result = run_workload(workload, default_profilers(53), sim="fast",
                          cache=cache)
    key, = cache.keys()
    assert cache.lookup(key, max_cycles=result.stats.cycles - 1) is None
    assert cache.lookup(key, max_cycles=result.stats.cycles) is not None


def test_cache_lru_evicts_oldest_first(tmp_path):
    cache = SimCache(str(tmp_path))
    old, new = build_suite(["mcf", "canneal"], scale=0.05)
    profilers = default_profilers(53)
    run_workload(old, profilers, sim="fast", cache=cache)
    run_workload(new, profilers, sim="fast", cache=cache)
    keys = sorted(cache.keys(),
                  key=lambda k: os.path.getmtime(cache._trace_path(k)))
    assert len(keys) == 2
    total = cache.stats()["bytes"]
    small = SimCache(str(tmp_path), max_bytes=total - 1)
    small._evict_lru()
    assert small.keys() == [keys[1]]  # the older entry went first


def test_resolve_cache_forms(tmp_path):
    assert resolve_cache(None) is None
    assert resolve_cache(False) is None
    cache = SimCache(str(tmp_path))
    assert resolve_cache(cache) is cache
    assert resolve_cache(str(tmp_path)).root == cache.root


# -- max-cycles budget -------------------------------------------------------------


def test_max_cycles_raises_and_never_caches(tmp_path):
    workload, = build_suite(["mcf"], scale=0.05)
    cache = SimCache(str(tmp_path))
    with pytest.raises(MaxCyclesExceeded):
        run_workload(workload, default_profilers(53), max_cycles=100,
                     sim="fast", cache=cache)
    assert cache.keys() == []
    assert os.listdir(tmp_path) == []  # no stray temp files either


def test_suite_surfaces_max_cycles_failure():
    suite = run_suite(build_suite(["mcf"], scale=0.05),
                      default_profilers(53), max_cycles=100)
    assert not suite.ok
    assert suite.failures["mcf"].kind == "max-cycles"
    assert "mcf" not in suite.results


# -- atomic path-mode trace writer -------------------------------------------------


def test_writer_v3_path_mode_is_atomic(tmp_path):
    destination = tmp_path / "run.tiptrace"
    program = _random_program(1)
    machine = Machine(program, premapped_data=[
        (DATA_BASE, DATA_BASE + 8 * DATA_WORDS)])
    writer = TraceWriterV3(str(destination), machine.config.rob_banks)
    machine.attach(writer)
    assert not destination.exists()  # only the .tmp sibling exists
    machine.run(2_000_000, sim="fast")
    assert destination.exists()
    assert [p for p in tmp_path.iterdir()] == [destination]
    collector = TraceCollector()
    replay_trace(str(destination), collector)
    assert len(collector) == machine.stats.cycles


def test_writer_v3_abort_leaves_nothing(tmp_path):
    destination = tmp_path / "run.tiptrace"
    writer = TraceWriterV3(str(destination), 2)
    writer.on_cycle(make_record(0))
    writer.abort()
    assert list(tmp_path.iterdir()) == []
    writer.abort()  # idempotent


# -- CLI surface -------------------------------------------------------------------


def test_cli_cache_subcommand(tmp_path, capsys):
    from repro.cli import main
    root = str(tmp_path / "cache")
    assert main(["cache", "stats", "--cache-dir", root]) == 0
    assert main(["cache", "verify", "--cache-dir", root]) == 0
    assert main(["cache", "clear", "--cache-dir", root]) == 0
    out = capsys.readouterr().out
    assert "0 entries" in out


# -- corrupt-entry recovery ---------------------------------------------------


def _forge_corrupt_entry(cache: SimCache, key: str) -> None:
    """Make *key*'s trace undecodable while keeping its checksum valid
    (a consistently-tampered or foreign-producer entry)."""
    import hashlib
    import json as jsonlib
    garbage = b"NOTATRACE" + os.urandom(256)
    with open(cache._trace_path(key), "wb") as fh:
        fh.write(garbage)
    with open(cache._meta_path(key), encoding="utf-8") as fh:
        meta = jsonlib.load(fh)
    meta["sha256"] = hashlib.sha256(garbage).hexdigest()
    with open(cache._meta_path(key), "w", encoding="utf-8") as fh:
        jsonlib.dump(meta, fh)


def test_checksum_valid_corrupt_entry_recovers(tmp_path):
    from repro.simfast import CacheCorruptionWarning
    workload = build_suite(["lbm"], scale=0.05)[0]
    configs = default_profilers(29, policies=("TIP",))
    cache = SimCache(str(tmp_path))
    pristine = run_workload(workload, configs, sim="fast",
                            cache=cache)
    key, = cache.keys()
    _forge_corrupt_entry(cache, key)
    assert cache.lookup(key) is not None  # checksum still passes

    with pytest.warns(CacheCorruptionWarning, match="evicted corrupt"):
        recovered = run_workload(workload, configs, sim="fast",
                                 cache=cache)
    assert not recovered.cached  # the hit was abandoned, re-simulated
    assert recovered.stats.to_dict() == pristine.stats.to_dict()
    assert recovered.errors() == pristine.errors()
    # The entry was re-filled and verifies again.
    assert cache.verify() == {key: True}

    # A pooled run looks the entry up in the parent, which evicts and
    # warns the same way; a worker then re-simulates the workload.
    _forge_corrupt_entry(cache, key)
    with pytest.warns(CacheCorruptionWarning, match="evicted corrupt"):
        pooled = run_suite([workload], profilers=configs, sim="fast",
                           cache=cache, jobs=2)[workload.name]
    assert not pooled.cached
    assert pooled.stats.to_dict() == pristine.stats.to_dict()
    assert pooled.errors() == pristine.errors()
    assert cache.verify() == {key: True}


def test_cli_profile_corrupt_cache_warns_on_stderr(tmp_path):
    """A corrupt entry must surface as a warning, not a traceback."""
    import subprocess
    import sys
    source = tmp_path / "prog.s"
    source.write_text("""
.func main
    addi x1, x0, 0
    addi x2, x0, 200
loop:
    addi x1, x1, 1
    bne  x1, x2, loop
    halt
""")
    root = tmp_path / "cache"
    argv = [sys.executable, "-m", "repro.cli", "profile", str(source),
            "--period", "7", "--cache-dir", str(root)]
    first = subprocess.run(argv, capture_output=True, text=True)
    assert first.returncode == 0, first.stderr

    cache = SimCache(str(root))
    key, = cache.keys()
    _forge_corrupt_entry(cache, key)

    second = subprocess.run(argv, capture_output=True, text=True)
    assert second.returncode == 0, second.stderr
    assert "CacheCorruptionWarning" in second.stderr
    assert "evicted corrupt simulation-cache entry" in second.stderr
    assert "Traceback" not in second.stderr
    assert "instruction profile" in second.stdout


# -- the cache key ------------------------------------------------------------------

EXAMPLES_ASM = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir, "examples", "asm")


def _run_key(program, premapped=None):
    """The key ``run_experiment`` looks up for *program*."""
    from repro.cpu.config import CoreConfig
    from repro.kernel import Kernel
    from repro.simfast import simulation_key
    return simulation_key(Kernel().link(program), CoreConfig.boom_4wide(),
                          premapped)


def _builders():
    """name -> a thunk building ``(program, premapped)`` afresh."""
    from repro.isa.assembler import assemble
    from repro.workloads import build_imagick
    from repro.workloads.suite import BENCHMARKS, build

    def suite(name):
        def build_it():
            workload = build(name, 0.05)
            return workload.program, workload.premapped
        return build_it

    def imagick(optimized):
        def build_it():
            workload = build_imagick(optimized=optimized)
            return workload.program, workload.premapped
        return build_it

    def example(path):
        def build_it():
            with open(path) as handle:
                return assemble(handle.read(), name=path), None
        return build_it

    builders = {name: suite(name) for name in BENCHMARKS}
    builders["imagick-orig"] = imagick(False)
    builders["imagick-opt"] = imagick(True)
    for name in sorted(os.listdir(EXAMPLES_ASM)):
        if name.endswith(".s"):
            builders[name] = example(os.path.join(EXAMPLES_ASM, name))
    return builders


BUILDERS = _builders()


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_independent_builds_key_equal(name):
    """Builders are deterministic down to data insertion order, which
    the key hashes: two builds of one program must hit each other."""
    first, second = BUILDERS[name](), BUILDERS[name]()
    assert first[0] is not second[0]
    assert _run_key(*first) == _run_key(*second)


def _data_program(data):
    from repro.isa.assembler import assemble
    program = assemble(".func main\n    ld x1, 0x2000(x0)\n    halt\n",
                       name="data")
    program.data = dict(data)
    return program


#: An all-int data image, and one mixing ints with floats.
INTS = [(0x2000, 7), (0x2008, 1)]
MIXED = [(0x2000, 7), (0x2008, 1), (0x2010, 0.0), (0x2018, 2.5)]


@pytest.mark.parametrize("base, variant", [
    (INTS, [(0x2000, 8), (0x2008, 1)]),
    (INTS, [(0x2000, 7), (0x2048, 1)]),
    (INTS, [(0x2008, 1), (0x2000, 7)]),
    (MIXED, [(0x2000, 8), (0x2008, 1), (0x2010, 0.0), (0x2018, 2.5)]),
    (MIXED, [(0x2000, 7), (0x2048, 1), (0x2010, 0.0), (0x2018, 2.5)]),
    (MIXED, [(0x2000, 7), (0x2008, 1.0), (0x2010, 0.0), (0x2018, 2.5)]),
    (MIXED, [(0x2000, 7), (0x2008, 1), (0x2010, -0.0), (0x2018, 2.5)]),
    (MIXED, [(0x2008, 1), (0x2000, 7), (0x2010, 0.0), (0x2018, 2.5)]),
], ids=["int-value", "int-address", "int-order", "value", "address",
        "int-vs-float", "signed-zero", "order"])
def test_key_changes_with_any_data_word(base, variant):
    assert _run_key(_data_program(base)) == _run_key(_data_program(base))
    assert _run_key(_data_program(variant)) != \
        _run_key(_data_program(base))


def test_value_outside_int64_keys_through_fallback():
    huge = [(0x2000, 1 << 70), (0x2008, 1.5)]
    assert _run_key(_data_program(huge)) == _run_key(_data_program(huge))
    assert _run_key(_data_program(huge)) != \
        _run_key(_data_program([(0x2000, (1 << 70) + 1), (0x2008, 1.5)]))


def _keys_of_three_images():
    """Run keys of an all-int image (mcf), a float image (imagick-orig)
    and a data image holding an int outside int64."""
    return [_run_key(*BUILDERS["mcf"]()),
            _run_key(*BUILDERS["imagick-orig"]()),
            _run_key(_data_program([(0x2000, -(1 << 70)), (0x2008, 2)]))]


def test_keys_are_equal_in_fresh_processes():
    """A key names an entry that other processes read (pool workers,
    the server, later runs), so it must not depend on the process or
    on its string-hash seed."""
    import subprocess
    import sys
    tests = os.path.dirname(os.path.abspath(__file__))
    path = [os.path.join(tests, os.pardir, "src"), tests]
    code = ("from test_simfast import _keys_of_three_images\n"
            "print(*_keys_of_three_images())")
    keys = _keys_of_three_images()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(path))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == keys, f"PYTHONHASHSEED={seed}"


# -- set-up once per run -------------------------------------------------------------


def test_cache_hit_builds_no_machine(tmp_path, monkeypatch):
    """A hit keys the linked image and replays: no kernel boots, no
    hierarchy is built, no data image is copied into a core."""
    import repro.harness.experiment as experiment
    from repro.analysis.profiles import profile_checksum
    workload, = build_suite(["mcf"], scale=0.05)
    profilers = default_profilers(53)
    recorded = run_workload(workload, profilers, sim="fast",
                            cache=str(tmp_path))

    def no_machine(*args, **kwargs):
        raise AssertionError("a cache hit built a Machine")

    monkeypatch.setattr(experiment, "Machine", no_machine)
    warm = run_workload(workload, profilers, sim="fast",
                        cache=str(tmp_path), sanitize=True)
    assert warm.cached
    assert warm.sanitizer.ok
    assert oracle_tables(warm.oracle) == oracle_tables(recorded.oracle)
    for label, profiler in recorded.profilers.items():
        assert profile_checksum(warm.profilers[label].samples) == \
            profile_checksum(profiler.samples), label


@pytest.mark.parametrize("cached, jobs", [(False, 1), (True, 1), (True, 2)],
                         ids=["False", "True", "True-jobs2"])
def test_run_links_once_and_keys_at_most_once(tmp_path, monkeypatch,
                                              cached, jobs):
    """A pooled run links and keys in the parent, so a pooled hit costs
    one link and one key, like a serial one.  The counters are per
    process: a pooled miss keys a second time in its worker."""
    import repro.simfast.cache as cache_mod
    from repro.kernel import Kernel
    calls = {"link": 0, "digest": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Kernel, "link", counted("link", Kernel.link))
    monkeypatch.setattr(cache_mod, "program_digest",
                        counted("digest", cache_mod.program_digest))
    workload, = build_suite(["lbm"], scale=0.05)
    profilers = default_profilers(29, policies=("TIP",))
    cache = str(tmp_path) if cached else None
    for hit in (False, cached):  # a miss (or an uncached run), a hit
        calls.update(link=0, digest=0)
        result = run_suite([workload], profilers=profilers, sim="fast",
                           cache=cache, jobs=jobs)[workload.name]
        assert result.cached == hit
        assert calls == {"link": 1, "digest": int(cached)}
