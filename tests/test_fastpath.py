"""Fast-path tests: block replay must be bit-identical.

Columnar replay is only a valid optimisation if every observer
produces exactly the same samples, profiles and reports as the
per-record reference replay.  These tests check that equivalence on
hypothesis-generated random traces (all profilers) and on the
checked-in golden trace.
"""

import io
import itertools
import json
import os
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import feed_records, make_record, oracle_tables
from repro.analysis.profiles import profile_checksum
from repro.core.baselines import SoftwareProfiler
from repro.core.oracle import OracleProfiler
from repro.core.profiler import SamplingProfiler
from repro.core.sampling import SampleSchedule
from repro.cpu.tracefile import TraceReaderV3, TraceWriterV3, replay_trace
from repro.fastpath import (CycleBlock, replay_blocks, replay_with_engine,
                            run_hotpath_bench)
from repro.harness import POLICIES, ProfilerConfig, replay_experiment
from repro.isa import assemble
from repro.kernel import Kernel

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

TINY = """
.func main
    addi x1, x0, 3
loop:
    addi x1, x1, -1
    bne  x1, x0, loop
    halt
"""


def _tiny_image():
    return Kernel().boot(assemble(TINY, name="tiny.s"))


def _encode_v3(records, banks=4, chunk_cycles=8) -> bytes:
    buffer = io.BytesIO()
    writer = TraceWriterV3(buffer, banks, chunk_cycles=chunk_cycles)
    feed_records(writer, records, banks)
    writer.on_finish(records[-1].cycle)
    return buffer.getvalue()


# -- hypothesis: random traces, every profiler, both replay paths -------------


@st.composite
def _random_records(draw):
    length = draw(st.integers(1, 40))
    addr = st.integers(0, 1 << 20)
    records = []
    for cycle in range(length):
        n_commits = draw(st.integers(0, 3))
        committed = [(draw(addr) & ~3, draw(st.booleans()),
                      draw(st.booleans())) for _ in range(n_commits)]
        rob_head = (draw(addr) & ~3 if not committed
                    and draw(st.booleans()) else None)
        exception = (draw(addr) & ~3
                     if rob_head is None and not committed
                     and draw(st.booleans()) else None)
        dispatched = [draw(addr) & ~3
                      for _ in range(draw(st.integers(0, 3)))]
        records.append(make_record(
            cycle, committed=committed, rob_head=rob_head,
            exception=exception,
            exception_is_ordering=draw(st.booleans()),
            dispatched=dispatched,
            dispatch_pc=(draw(addr) & ~3
                         if draw(st.booleans()) else None),
            fetch_pc=draw(addr) & ~3, banks=4))
    return records


def _profilers_under_test(image):
    for policy in POLICIES:
        for mode in ("periodic", "random"):
            yield ProfilerConfig(policy, 3, mode, 11).build(image)
    yield SoftwareProfiler(SampleSchedule(3), skid_cycles=2)
    yield OracleProfiler(image)
    yield OracleProfiler(image, watch_schedules=[SampleSchedule(3)])
    yield OracleProfiler(image, watch_schedules=[
        SampleSchedule(3, "random", 11), SampleSchedule(5)])


@given(records=_random_records())
@settings(max_examples=25, deadline=None)
def test_property_block_engine_matches_cycle_engine(records):
    image = _tiny_image()
    trace = _encode_v3(records)
    for cycle_prof, block_prof in zip(_profilers_under_test(image),
                                      _profilers_under_test(image)):
        replay_trace(trace, cycle_prof)
        replay_blocks(trace, block_prof)
        name = type(cycle_prof).__name__
        if isinstance(cycle_prof, OracleProfiler):
            assert oracle_tables(cycle_prof.report) == \
                oracle_tables(block_prof.report), name
        else:
            assert profile_checksum(cycle_prof.samples) == \
                profile_checksum(block_prof.samples), name
            assert cycle_prof.profile() == block_prof.profile(), name


@given(records=_random_records())
@settings(max_examples=25, deadline=None)
def test_property_block_round_trip(records):
    trace = _encode_v3(records)
    decoded = []
    with TraceReaderV3(trace) as reader:
        for chunk in reader.index.chunks:
            decoded.extend(reader.chunk_block(chunk).records())
    assert len(decoded) == len(records)
    for original, copy in zip(records, decoded):
        assert copy.cycle == original.cycle
        assert copy.fetch_pc == original.fetch_pc
        assert copy.rob_head == original.rob_head
        assert copy.rob_empty == original.rob_empty
        assert copy.exception == original.exception
        assert copy.dispatch_pc == original.dispatch_pc
        assert tuple(copy.dispatched) == tuple(original.dispatched)
        assert [(c.addr, c.mispredicted, c.flushes)
                for c in copy.committed] == \
            [(c.addr, c.mispredicted, c.flushes)
             for c in original.committed]


_COLUMNS = ("flags", "oldest_bank", "fetch_pc", "opt_vals", "opt_base",
            "commit_base", "commit_addr", "commit_meta", "disp_base",
            "disp_addr")


def _columns(block):
    return (block.start_cycle, block.n, block.banks) + tuple(
        list(getattr(block, name)) for name in _COLUMNS)


@given(records=_random_records(), data=st.data())
@settings(max_examples=25, deadline=None)
def test_property_concat_matches_from_runs(records, data):
    """Joining record ranges of in-memory and mmap-style (v3) blocks
    gives the columns of columnarizing those records directly."""
    whole = CycleBlock.from_runs([(r, 1) for r in records], 4)
    with TraceReaderV3(_encode_v3(records, chunk_cycles=5)) as reader:
        chunks = [reader.chunk_block(c) for c in reader.index.chunks]
        cuts = sorted(data.draw(st.lists(
            st.integers(0, len(records)), max_size=6)))
        bounds = [0] + cuts + [len(records)]
        parts = []
        for lo, hi in zip(bounds, bounds[1:]):
            if lo == hi:
                continue
            if data.draw(st.booleans()):
                parts.append((whole, lo, hi))
                continue
            # The same range out of the decoded v3 chunks.
            for block in chunks:
                start = block.start_cycle
                a, b = max(lo, start), min(hi, start + block.n)
                if a < b:
                    parts.append((block, a - start, b - start))
        assert _columns(CycleBlock.concat(parts)) == _columns(whole)


@given(records=_random_records(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_property_writer_blocks_match_stepped(records, data):
    """Any split of the records into blocks gives the v3 bytes of
    one-record blocks, chunk carries included."""
    chunk_cycles = data.draw(st.sampled_from((1, 4, 5, 64)))
    stepped = _encode_v3(records, chunk_cycles=chunk_cycles)
    buffer = io.BytesIO()
    writer = TraceWriterV3(buffer, 4, chunk_cycles=chunk_cycles)
    i = 0
    while i < len(records):
        take = data.draw(st.integers(1, len(records) - i))
        writer.on_block(CycleBlock.from_runs(
            [(r, 1) for r in records[i:i + take]], 4))
        i += take
    writer.on_finish(records[-1].cycle)
    assert buffer.getvalue() == stepped


# -- golden trace: block replay and the per-record reference ------------------


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
    for name, want in expected["profilers"].items():
        profiler = result.profilers[name]
        assert len(profiler.samples) == want["samples"], name
        assert profile_checksum(profiler.samples) == \
            want["checksum"], name
        profile = {hex(addr): weight
                   for addr, weight in profiler.profile().items()}
        assert profile == want["profile"], name


def test_golden_block_engine_serial(golden):
    trace, expected, image, configs = golden
    result = replay_experiment(io.BytesIO(trace), image, configs)
    assert result.oracle.total_cycles == expected["cycles"]
    _check_against_golden(result, expected)
    oracle = {hex(addr): weight
              for addr, weight in result.oracle.profile.items()}
    assert oracle == expected["oracle_profile"]


def test_golden_cycle_engine_still_available(golden):
    """The per-record reference replay reproduces the golden too."""
    trace, expected, image, configs = golden
    profilers = {config.name: config.build(image) for config in configs}
    assert replay_trace(trace, *profilers.values()) == expected["cycles"]
    _check_against_golden(SimpleNamespace(profilers=profilers), expected)


def test_validate_engine_rejects_unknown(golden):
    """The engine-naming entry point knows one engine, ``"block"``."""
    trace, expected, image, _configs = golden
    profiler = SoftwareProfiler(SampleSchedule(5))
    assert replay_with_engine(trace, [profiler]) == expected["cycles"]
    assert profiler.samples
    for engine in ("cycle", "turbo"):
        with pytest.raises(ValueError, match="unknown replay engine"):
            replay_with_engine(trace, [], engine=engine)


# -- block-nativeness follows from the hooks a class overrides ----------------

BLOCK_HOOKS = ("_block_attribute", "_block_scan_resolve",
               "_block_resolve_outcome")


def _hook(self, block, i):
    return None


@pytest.mark.parametrize("hooks", [
    hooks for size in (1, 2)
    for hooks in itertools.combinations(BLOCK_HOOKS, size)],
    ids="+".join)
def test_partial_block_hooks_fail_at_definition(hooks):
    """Overriding some but not all columnar hooks is a ``TypeError``
    when the class is defined, naming the hooks still missing."""
    namespace = {name: _hook for name in hooks}
    with pytest.raises(TypeError) as excinfo:
        type("HalfColumnar", (SamplingProfiler,), namespace)
    message = str(excinfo.value)
    assert "HalfColumnar" in message
    for name in BLOCK_HOOKS:
        if name not in hooks:
            assert name in message, name


def test_every_policy_consumes_blocks_without_on_cycle(golden):
    """Every registered policy, the inherited ``TIP-ILP`` and
    ``NCI+ILP`` included, takes the columnar path: block replay of the
    golden trace never calls ``on_cycle`` and still reproduces the
    golden sample streams."""
    trace, expected, image, configs = golden

    def no_per_record_fallback(record):
        raise AssertionError(f"on_cycle called at cycle {record.cycle}")

    profilers = {config.name: config.build(image) for config in configs}
    assert set(profilers) == set(POLICIES)
    for profiler in profilers.values():
        profiler.on_cycle = no_per_record_fallback
    assert replay_blocks(trace, *profilers.values()) == expected["cycles"]
    _check_against_golden(SimpleNamespace(profilers=profilers), expected)


# -- hot-path benchmark -------------------------------------------------------


def test_hotpath_bench_quick(golden, tmp_path):
    trace, expected, image, _configs = golden
    output = str(tmp_path / "BENCH_hotpath.json")
    result = run_hotpath_bench(trace, image, output=output,
                               period=expected["period"],
                               mode=expected["mode"],
                               seed=expected["seed"],
                               policies=("TIP", "LCI"), repeats=1)
    assert result["checksums_equal"]
    assert set(result["rows"]) == {"TIP", "LCI", "Oracle", "all"}
    for entry in result["rows"].values():
        assert entry["checksums_equal"]
        assert entry["cycle_s"] > 0 and entry["v3_s"] > 0
    assert result["v3_vs_cycle"] > 1
    with open(output) as handle:
        assert json.load(handle)["checksums_equal"]
