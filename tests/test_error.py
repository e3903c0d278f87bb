"""Profile error metric tests."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.error import (error_reduction, overlap, profile_error,
                                  profile_errors, per_sample_error)
from repro.analysis.symbols import (Granularity, OFF_TEXT, Symbolizer,
                                    UNKNOWN_FUNCTION)
from repro.core.oracle import OracleProfiler, OracleReport
from repro.core.samples import Sample
from repro.core.sampling import SampleSchedule
from repro.core.baselines import LciProfiler, NciProfiler
from repro.core.tip import TipProfiler
from repro.cpu.machine import Machine
from repro.cpu.trace import replay
from repro.harness import default_profilers, run_workload
from repro.isa.assembler import assemble
from repro.isa.program import FunctionSymbol, Program
from repro.kernel import Kernel
from repro.workloads import build
from tests.test_oracle import BR, I1, I3, I5, LOAD, PROGRAM
from conftest import make_record


def test_overlap_identical():
    assert overlap({"a": 0.5, "b": 0.5}, {"a": 0.5, "b": 0.5}) == 1.0


def test_overlap_disjoint():
    assert overlap({"a": 1.0}, {"b": 1.0}) == 0.0


def test_overlap_partial():
    assert overlap({"a": 0.7, "b": 0.3}, {"a": 0.4, "c": 0.6}) == \
        pytest.approx(0.4)


def test_overlap_symmetry():
    a = {"x": 0.2, "y": 0.8}
    b = {"x": 0.5, "z": 0.5}
    assert overlap(a, b) == overlap(b, a)


def _run_with_oracle(records, profiler_cls, period=1, needs_program=True):
    schedule = SampleSchedule(period)
    profiler = (profiler_cls(schedule, PROGRAM) if needs_program
                else profiler_cls(schedule))
    oracle = OracleProfiler(PROGRAM,
                            watch_schedules=[SampleSchedule(period)])
    replay(records, oracle, profiler)
    oracle.report.total_cycles = len(records)
    return profiler, oracle.report


STALL_TRACE = (
    [make_record(0, committed=[(I1, False, False)], rob_head=LOAD)]
    + [make_record(c, rob_head=LOAD) for c in range(1, 41)]
    + [make_record(41, committed=[(LOAD, False, False), (I3, False, False)])]
)


def test_tip_error_zero_at_period_one():
    """Sampling every cycle, TIP reproduces Oracle exactly."""
    profiler, report = _run_with_oracle(STALL_TRACE, TipProfiler)
    sym = Symbolizer(PROGRAM)
    error = profile_error(profiler, report, sym, Granularity.INSTRUCTION)
    assert error == pytest.approx(0.0, abs=1e-9)


def test_lci_error_large_on_stall():
    profiler, report = _run_with_oracle(STALL_TRACE, LciProfiler,
                                        needs_program=False)
    sym = Symbolizer(PROGRAM)
    error = profile_error(profiler, report, sym, Granularity.INSTRUCTION)
    # LCI puts the 40 stall cycles on I1: nearly everything is wrong.
    assert error > 0.9


def test_lci_error_zero_at_function_level():
    profiler, report = _run_with_oracle(STALL_TRACE, LciProfiler,
                                        needs_program=False)
    sym = Symbolizer(PROGRAM)
    error = profile_error(profiler, report, sym, Granularity.FUNCTION)
    assert error == pytest.approx(0.0, abs=1e-9)  # same function


def test_nci_more_accurate_than_lci_on_stall():
    nci, report = _run_with_oracle(STALL_TRACE, NciProfiler,
                                   needs_program=False)
    lci, _ = _run_with_oracle(STALL_TRACE, LciProfiler,
                              needs_program=False)
    sym = Symbolizer(PROGRAM)
    nci_err = profile_error(nci, report, sym, Granularity.INSTRUCTION)
    lci_err = profile_error(lci, report, sym, Granularity.INSTRUCTION)
    assert nci_err < lci_err


def test_error_bounded():
    for cls, needs in ((TipProfiler, True), (NciProfiler, False),
                       (LciProfiler, False)):
        profiler, report = _run_with_oracle(STALL_TRACE, cls,
                                            needs_program=needs)
        sym = Symbolizer(PROGRAM)
        error = profile_error(profiler, report, sym,
                              Granularity.INSTRUCTION)
        assert 0.0 <= error <= 1.0


def test_sparser_sampling_increases_unsystematic_error():
    tip_dense, report_dense = _run_with_oracle(STALL_TRACE, TipProfiler,
                                               period=1)
    tip_sparse, report_sparse = _run_with_oracle(STALL_TRACE, TipProfiler,
                                                 period=17)
    sym = Symbolizer(PROGRAM)
    dense = profile_error(tip_dense, report_dense, sym,
                          Granularity.INSTRUCTION)
    sparse = profile_error(tip_sparse, report_sparse, sym,
                           Granularity.INSTRUCTION)
    assert sparse >= dense


def test_per_sample_error_requires_watched_schedule():
    profiler = TipProfiler(SampleSchedule(5), PROGRAM)
    oracle = OracleProfiler(PROGRAM)  # no watch schedules
    replay(STALL_TRACE, oracle, profiler)
    sym = Symbolizer(PROGRAM)
    with pytest.raises(ValueError, match="did not watch"):
        per_sample_error(profiler, oracle.report, sym,
                         Granularity.INSTRUCTION)


def test_per_sample_error_zero_for_tip_dense():
    profiler, report = _run_with_oracle(STALL_TRACE, TipProfiler)
    sym = Symbolizer(PROGRAM)
    error = per_sample_error(profiler, report, sym,
                             Granularity.INSTRUCTION)
    assert error == pytest.approx(0.0, abs=1e-9)


def test_error_reduction_factors():
    factors = error_reduction({"TIP": 0.016, "NCI": 0.093}, "TIP")
    assert factors["NCI"] == pytest.approx(5.8125)
    assert factors["TIP"] == 1.0


def test_error_reduction_zero_reference():
    factors = error_reduction({"TIP": 0.0, "NCI": 0.1}, "TIP")
    assert factors["NCI"] == float("inf")


# -- the shared path against the per-call metric ------------------------------


def _reference_symbol(symbolizer, addr, granularity):
    """Per-call symbolization: one slow-path call per lookup."""
    if granularity is Granularity.INSTRUCTION:
        return symbolizer.instruction(addr)
    if granularity is Granularity.BASIC_BLOCK:
        return symbolizer.basic_block(addr)
    return symbolizer.function(addr)


def _reference_overlap(weights_a, weights_b):
    if len(weights_b) < len(weights_a):
        weights_a, weights_b = weights_b, weights_a
    return sum(min(weight, weights_b.get(sym, 0.0))
               for sym, weight in weights_a.items())


def _reference_profile_error(profiler, oracle, symbolizer, granularity):
    """The metric one profiler and one symbol at a time, with the
    summation order :func:`profile_errors` must keep."""
    total = float(oracle.total_cycles) or sum(oracle.profile.values())
    sampled_time = float(sum(s.interval for s in profiler.samples))
    if total <= 0.0 or sampled_time <= 0.0:
        return 0.0
    gold = {}
    for addr, cycles in oracle.profile.items():
        sym = _reference_symbol(symbolizer, addr, granularity)
        gold[sym] = gold.get(sym, 0.0) + cycles / total
    mine = {}
    for sample in profiler.samples:
        scale = sample.interval / sampled_time
        for addr, fraction in sample.weights:
            sym = _reference_symbol(symbolizer, addr, granularity)
            mine[sym] = mine.get(sym, 0.0) + fraction * scale
    return 1.0 - _reference_overlap(mine, gold)


def _gapped_image():
    """A linked image whose text has a hole between two functions."""
    app = assemble("""
.func f
    add x1, x2, x3
    ld  x4, 0(x1)
    bne x1, x2, f
    add x6, x5, x1
    sd  x6, 0(x1)
    add x5, x4, x1
    halt
""")
    lo, hi = app.text_lo, app.text_hi
    gapped = Program(app.instructions,
                     [FunctionSymbol("f", lo, lo + 12),
                      FunctionSymbol("g", lo + 20, hi)], app.entry)
    return Kernel().link(gapped)


IMAGE = _gapped_image()
_GAP = IMAGE.text_lo + 12
_HANDLER = Kernel().handler_program.text_lo
#: Text, kernel-handler, between-function and off-text addresses.
ADDRESSES = sorted(IMAGE.addresses()) + [0xDEAD000, IMAGE.text_lo + 2]


def test_addresses_cover_every_kind_of_symbol():
    symbolizer = Symbolizer(IMAGE)
    functions = {symbolizer.function(addr) for addr in ADDRESSES}
    assert {"f", "g", OFF_TEXT, UNKNOWN_FUNCTION} <= functions
    assert symbolizer.function(_GAP) == UNKNOWN_FUNCTION
    assert _HANDLER in ADDRESSES and symbolizer.instruction(_HANDLER) \
        == _HANDLER


_weights = st.lists(st.sampled_from(ADDRESSES), max_size=4).map(
    lambda addrs: [(addr, 1.0 / len(addrs)) for addr in addrs])
_samples = st.lists(
    st.builds(Sample, st.integers(0, 10_000), st.integers(1, 60),
              _weights),
    max_size=12)
_oracle_profiles = st.dictionaries(
    st.sampled_from(ADDRESSES),
    st.integers(0, 4_000).map(lambda units: units / 12), max_size=12)


def _profiler(samples):
    profiler = TipProfiler(SampleSchedule(7), IMAGE)
    profiler.samples = samples
    return profiler


@settings(max_examples=150, deadline=None)
@given(profile=_oracle_profiles,
       total_cycles=st.one_of(st.just(0), st.integers(1, 2_000)),
       sample_lists=st.lists(_samples, min_size=1, max_size=4))
def test_shared_path_equals_per_call_metric(profile, total_cycles,
                                             sample_lists):
    oracle = OracleReport()
    oracle.profile = profile
    oracle.total_cycles = total_cycles
    profilers = {f"P{i}": _profiler(samples)
                 for i, samples in enumerate(sample_lists)}
    symbolizer = Symbolizer(IMAGE)
    for granularity in Granularity:
        shared = profile_errors(profilers, oracle, symbolizer, granularity)
        assert list(shared) == list(profilers)
        for name, profiler in profilers.items():
            expected = repr(_reference_profile_error(
                profiler, oracle, symbolizer, granularity))
            assert repr(shared[name]) == expected
            assert repr(profile_error(profiler, oracle, symbolizer,
                                      granularity)) == expected


def test_slow_path_runs_once_per_address_and_granularity(monkeypatch):
    """Every report of one result reads the same symbol tables."""
    calls = Counter()
    for method in ("instruction", "basic_block", "function"):
        slow = getattr(Symbolizer, method)

        def counted(self, addr, slow=slow, method=method):
            calls[method, addr] += 1
            return slow(self, addr)

        monkeypatch.setattr(Symbolizer, method, counted)
    workload = build("mcf", 0.02)
    result = run_workload(workload, default_profilers(13))
    # The harness Oracle watches no schedule; per-sample errors read
    # one watched on the same run.
    machine = Machine(workload.program, premapped_data=workload.premapped)
    watched = OracleProfiler(machine.image,
                             watch_schedules=[SampleSchedule(13)])
    machine.attach(watched)
    machine.run()
    for granularity in Granularity:
        result.errors(granularity)
        for name in result.profilers:
            result.error(name, granularity)
            result.profile(name, granularity)
        result.oracle_profile(granularity)
        per_sample_error(result.profilers["TIP"], watched.report,
                         result.symbolizer, granularity)
    result.function_stacks()
    assert {method for method, _ in calls} == \
        {"instruction", "basic_block", "function"}
    assert max(calls.values()) == 1
