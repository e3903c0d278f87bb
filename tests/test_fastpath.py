"""Fast-path tests: the block replay engine must be bit-identical.

The columnar engine is only a valid optimisation if every observer
produces exactly the same samples, profiles and reports as the classic
record-at-a-time replay.  These tests check that equivalence three
ways: on hypothesis-generated random traces (all profilers), on the
checked-in golden trace (serial and sharded), and for the
simulation-side :class:`~repro.fastpath.BlockAssembler`.
"""

import io
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_record, oracle_tables
from repro.analysis.profiles import profile_checksum
from repro.core.baselines import SoftwareProfiler
from repro.core.oracle import OracleProfiler
from repro.core.sampling import SampleSchedule
from repro.cpu.machine import Machine
from repro.cpu.tracefile import (TraceReaderV2, TraceWriterV2,
                                 replay_trace)
from repro.fastpath import (BlockAssembler, CycleBlock, decode_block,
                            replay_blocks, replay_with_engine,
                            run_hotpath_bench, validate_engine)
from repro.harness import ProfilerConfig, replay_experiment
from repro.isa import assemble
from repro.kernel import Kernel
from repro.parallel import ProgramSpec, replay_sharded

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

SEVEN_POLICIES = ("Software", "Dispatch", "LCI", "NCI", "NCI+ILP",
                  "TIP-ILP", "TIP")

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


def _encode_v2(records, banks=4, chunk_cycles=8) -> bytes:
    buffer = io.BytesIO()
    writer = TraceWriterV2(buffer, banks, chunk_cycles=chunk_cycles)
    for record in records:
        writer.on_cycle(record)
    writer.on_finish(records[-1].cycle)
    return buffer.getvalue()


# -- hypothesis: random traces, every profiler, both engines ---------------------


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
    for policy in SEVEN_POLICIES:
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
    trace = _encode_v2(records)
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
    trace = _encode_v2(records)
    decoded = []
    with TraceReaderV2(trace) as reader:
        for chunk in reader.index.chunks:
            block = decode_block(reader.chunk_payload(chunk),
                                 chunk.start_cycle, chunk.n_records,
                                 reader.banks)
            decoded.extend(block.records())
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


# -- golden trace: block engine, serial and sharded ------------------------------


@pytest.fixture(scope="module")
def golden():
    with open(os.path.join(DATA, "golden.tiptrace"), "rb") as handle:
        trace = handle.read()
    with open(os.path.join(DATA, "golden_expected.json")) as handle:
        expected = json.load(handle)
    with open(os.path.join(DATA, "golden.s")) as handle:
        source = handle.read()
    image = Kernel().boot(assemble(source, name="golden.s"))
    spec = ProgramSpec(kind="asm", source=source, name="golden.s")
    configs = tuple(ProfilerConfig(policy, expected["period"],
                                   expected["mode"], expected["seed"])
                    for policy in SEVEN_POLICIES)
    return trace, expected, image, spec, configs


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
    trace, expected, image, _spec, configs = golden
    result = replay_experiment(io.BytesIO(trace), image, configs,
                               engine="block")
    assert result.replay.cycles == expected["cycles"]
    assert result.replay.engine == "block"
    _check_against_golden(result, expected)
    oracle = {hex(addr): weight
              for addr, weight in result.oracle.profile.items()}
    assert oracle == expected["oracle_profile"]


@pytest.mark.parametrize("jobs", [2, 7])
def test_golden_block_engine_sharded(golden, jobs):
    trace, expected, image, spec, configs = golden
    outcome = replay_sharded(io.BytesIO(trace), spec, configs, jobs,
                             image=image, engine="block")
    assert outcome.mode == "sharded"
    assert outcome.cycles == expected["cycles"]
    for name, want in expected["profilers"].items():
        profiler = outcome.profilers[name]
        assert profile_checksum(profiler.samples) == \
            want["checksum"], name


def test_golden_cycle_engine_still_available(golden):
    trace, expected, image, _spec, configs = golden
    result = replay_experiment(io.BytesIO(trace), image, configs,
                               engine="cycle")
    assert result.replay.engine == "cycle"
    _check_against_golden(result, expected)


# -- engine selection and fallback ----------------------------------------------


def test_validate_engine_rejects_unknown():
    with pytest.raises(ValueError, match="unknown replay engine"):
        validate_engine("turbo")


def test_v1_trace_falls_back_to_cycle_engine():
    from repro.cpu.tracefile import TraceWriter
    machine = Machine(assemble(TINY, name="tiny.s"))
    buffer = io.BytesIO()
    machine.attach(TraceWriter(buffer, machine.config.rob_banks))
    machine.run(10_000)
    profiler = SoftwareProfiler(SampleSchedule(5))
    stream = io.BytesIO(buffer.getvalue())
    cycles, engine = replay_with_engine(stream, [profiler],
                                        engine="block")
    assert engine == "cycle"
    assert cycles > 0
    assert profiler.samples


# -- simulation-side batching ----------------------------------------------------


def test_block_assembler_matches_direct_attachment():
    def run(wrap):
        program = assemble(TINY, name="tiny.s")
        machine = Machine(program)
        profilers = list(_profilers_under_test(machine.image))
        if wrap:
            machine.attach(BlockAssembler(profilers,
                                          machine.config.rob_banks,
                                          block_cycles=16))
        else:
            for profiler in profilers:
                machine.attach(profiler)
        machine.run(10_000)
        return profilers

    for direct, batched in zip(run(False), run(True)):
        name = type(direct).__name__
        if isinstance(direct, OracleProfiler):
            assert oracle_tables(direct.report) == \
                oracle_tables(batched.report)
        else:
            assert profile_checksum(direct.samples) == \
                profile_checksum(batched.samples), name


def test_block_assembler_rejects_empty_blocks():
    with pytest.raises(ValueError, match="block_cycles"):
        BlockAssembler([], 4, block_cycles=0)


def test_from_records_round_trip():
    records = [make_record(3, committed=[(0x40, True, False)],
                           dispatched=[0x44, 0x48], fetch_pc=0x4C,
                           dispatch_pc=0x44, banks=4),
               make_record(4, rob_head=0x50, fetch_pc=0x54, banks=4)]
    block = CycleBlock.from_records(records, banks=4)
    assert block.start_cycle == 3
    assert block.n == 2
    copies = list(block.records())
    assert copies[0].committed[0].addr == 0x40
    assert copies[0].committed[0].mispredicted
    assert copies[1].rob_head == 0x50
    assert not copies[1].rob_empty


# -- hot-path benchmark -----------------------------------------------------------


def test_hotpath_bench_quick(golden, tmp_path):
    trace, expected, image, _spec, _configs = golden
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
        assert entry["cycle_s"] > 0 and entry["block_s"] > 0
    with open(output) as handle:
        assert json.load(handle)["checksums_equal"]
