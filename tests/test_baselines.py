"""Baseline profiler tests: the Figure 4 comparisons.

Each scenario mirrors the paper's 2-wide examples and checks where NCI
and LCI (and Dispatch/Software) put their samples -- including the
systematic misattributions the paper identifies.
"""

from repro.core.baselines import (DispatchProfiler, LciProfiler,
                                  NciIlpProfiler, NciProfiler,
                                  SoftwareProfiler)
from repro.core.sampling import SampleSchedule
from repro.cpu.trace import replay
from tests.test_oracle import BR, I1, I3, I5, LOAD
from conftest import make_record


def _run(cls, records):
    profiler = cls(SampleSchedule(period=1))
    replay(records, profiler)
    return {s.cycle: s for s in profiler.samples}


# -- Figure 4b: Stalled -------------------------------------------------------

STALL_TRACE = (
    [make_record(0, committed=[(I1, False, False)], rob_head=LOAD)]
    + [make_record(c, rob_head=LOAD) for c in range(1, 41)]
    + [make_record(41, committed=[(LOAD, False, False), (I3, False, False)])]
)


def test_nci_on_stall_mostly_matches_oracle():
    samples = _run(NciProfiler, STALL_TRACE)
    assert samples[0].weights == [(I1, 1.0)]
    for cycle in range(1, 41):
        assert samples[cycle].weights == [(LOAD, 1.0)]
    # NCI misses I3 at cycle 41 (no ILP support).
    assert samples[41].weights == [(LOAD, 1.0)]


def test_lci_misattributes_stall_to_previous_commit():
    """LCI attributes the 40-cycle load stall to I1 (Figure 4b)."""
    samples = _run(LciProfiler, STALL_TRACE)
    for cycle in range(1, 41):
        assert samples[cycle].weights == [(I1, 1.0)]


def test_nci_ilp_spreads_over_commit_group():
    samples = _run(NciIlpProfiler, STALL_TRACE)
    assert sorted(samples[41].weights) == [(LOAD, 0.5), (I3, 0.5)]
    # Pending samples during the stall resolve onto the whole group: the
    # Section 5.2 failure mode (stall shared with an innocent instruction).
    assert sorted(samples[5].weights) == [(LOAD, 0.5), (I3, 0.5)]


# -- Figure 4c: Flushed -------------------------------------------------------

FLUSH_TRACE = (
    [make_record(0, committed=[(I1, False, False), (BR, True, False)])]
    + [make_record(c) for c in range(1, 5)]
    + [make_record(5, rob_head=I5, dispatched=[I5], dispatch_pc=I5)]
    + [make_record(6, committed=[(I5, False, False)])]
)


def test_nci_blames_instruction_after_flush():
    """NCI attributes empty-ROB mispredict cycles to the next-committing
    instruction I5 -- the systematic error TIP fixes."""
    samples = _run(NciProfiler, FLUSH_TRACE)
    for cycle in range(1, 6):
        assert samples[cycle].weights == [(I5, 1.0)]


def test_lci_correctly_blames_branch_on_flush():
    """LCI gets the flush right: the branch was the last commit."""
    samples = _run(LciProfiler, FLUSH_TRACE)
    for cycle in range(1, 5):
        assert samples[cycle].weights == [(BR, 1.0)]


def test_nci_never_attributes_to_branch():
    samples = _run(NciProfiler, FLUSH_TRACE)
    sampled = {addr for s in samples.values() for addr, _ in s.weights}
    assert BR not in sampled  # committed in parallel with I1: invisible


# -- Dispatch and Software ----------------------------------------------------

def test_dispatch_samples_dispatch_stage():
    records = [make_record(0, rob_head=LOAD, dispatch_pc=I5),
               make_record(1, rob_head=LOAD, dispatch_pc=I5)]
    samples = _run(DispatchProfiler, records)
    assert samples[0].weights == [(I5, 1.0)]
    assert samples[1].weights == [(I5, 1.0)]


def test_dispatch_waits_when_nothing_at_dispatch():
    records = [make_record(0, rob_head=LOAD, dispatch_pc=None),
               make_record(1, rob_head=LOAD, dispatch_pc=I3)]
    samples = _run(DispatchProfiler, records)
    assert samples[0].weights == [(I3, 1.0)]


def test_software_samples_fetch_pc():
    records = [make_record(0, rob_head=LOAD, fetch_pc=I5)]
    samples = _run(SoftwareProfiler, records)
    assert samples[0].weights == [(I5, 1.0)]


def test_lci_before_first_commit_resolves_forward():
    records = [make_record(0), make_record(1, committed=[(I1, False, False)])]
    samples = _run(LciProfiler, records)
    assert samples[0].weights == [(I1, 1.0)]


def test_nci_sample_on_commit_cycle_takes_oldest():
    records = [make_record(0, committed=[(I1, False, False),
                                         (I3, False, False)])]
    samples = _run(NciProfiler, records)
    assert samples[0].weights == [(I1, 1.0)]


def test_lci_sample_on_commit_cycle_takes_youngest():
    records = [make_record(0, committed=[(I1, False, False),
                                         (I3, False, False)])]
    samples = _run(LciProfiler, records)
    assert samples[0].weights == [(I3, 1.0)]


def test_unresolved_nci_sample_stays_empty():
    records = [make_record(0, rob_head=LOAD)]
    samples = _run(NciProfiler, records)
    assert samples[0].weights == []


def test_software_skid_delays_capture():
    """With interrupt-delivery skid, the PC is captured later."""
    records = [make_record(0, rob_head=LOAD, fetch_pc=I3),
               make_record(1, rob_head=LOAD, fetch_pc=I5),
               make_record(2, rob_head=LOAD, fetch_pc=BR)]
    # A schedule that fires only at cycle 0 keeps the example clear.
    profiler = SoftwareProfiler(SampleSchedule(period=100, offset=0),
                                skid_cycles=2)
    replay(records, profiler)
    assert profiler.samples[0].weights == [(BR, 1.0)]


def test_software_skid_validation():
    import pytest as _pytest
    with _pytest.raises(ValueError):
        SoftwareProfiler(SampleSchedule(5), skid_cycles=-1)


def test_software_skid_increases_error_end_to_end():
    """More skid cannot make Software profiling more faithful."""
    from repro.analysis import Granularity, Symbolizer, profile_error
    from repro.core.oracle import OracleProfiler
    from repro.cpu.machine import Machine
    from repro.workloads import build_workload, k_stream_load

    workload = build_workload(
        "t", [k_stream_load("k", 900, 0x20_0000, 1024 * 1024, stride=16)])
    machine = Machine(workload.program,
                      premapped_data=workload.premapped)
    oracle = OracleProfiler(machine.image,
                            watch_schedules=[SampleSchedule(13)])
    no_skid = SoftwareProfiler(SampleSchedule(13), skid_cycles=0)
    with_skid = SoftwareProfiler(SampleSchedule(13), skid_cycles=40)
    machine.attach(oracle)
    machine.attach(no_skid)
    machine.attach(with_skid)
    machine.run()
    oracle.report.total_cycles = machine.stats.cycles
    sym = Symbolizer(machine.image)
    err_no = profile_error(no_skid, oracle.report, sym,
                           Granularity.INSTRUCTION)
    err_skid = profile_error(with_skid, oracle.report, sym,
                             Granularity.INSTRUCTION)
    assert err_no > 0.2          # software sampling is already bad
    assert err_skid > err_no - 0.1  # skid does not fix it
