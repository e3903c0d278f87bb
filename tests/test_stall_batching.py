"""A stall run handed over as one block is observationally equivalent
to stepping the same run cycle by cycle.

The simulator's stall fast-forward hands observers each run as
``CycleBlock.from_runs([(record, n)])`` through ``on_block``: every
shipped profiler, the Oracle and the trace sanitizer must produce
identical results whether they get that block or ``n`` single cycles
(``on_cycle`` calls, or one-record blocks for the sanitizer, which
reads only blocks).
"""

import pytest

from conftest import feed_records, make_record, oracle_tables
from repro.core.baselines import (DispatchProfiler, LciProfiler,
                                  NciIlpProfiler, NciProfiler,
                                  SoftwareProfiler)
from repro.core.oracle import OracleProfiler
from repro.core.sampling import SampleSchedule
from repro.core.tip import TipIlpProfiler, TipProfiler
from repro.cpu.trace import shifted_record
from repro.fastpath import CycleBlock
from repro.isa.assembler import assemble
from repro.lint import TraceSanitizer

PROGRAM = assemble("""
.entry main
.func main
main:
    addi x1, x0, 1
    addi x2, x1, 2
    add  x3, x1, x2
    add  x4, x3, x1
    halt
""", name="stall-batch")

#: Two committing cycles, a pure-stall run, then the rest commits.
PREFIX = [make_record(0, committed=[(0x10000, False, False)]),
          make_record(1, committed=[(0x10004, False, False)])]
STALL = make_record(2, rob_head=0x10008)
SUFFIX_AT = {0x10008: 0, 0x1000c: 1, 0x10010: 2}


def _suffix(start):
    return [make_record(start + pos, committed=[(addr, False, False)])
            for addr, pos in sorted(SUFFIX_AT.items())]


def _stall_block(record, run):
    """The block the stall fast-forward emits for *run* cycles."""
    return CycleBlock.from_runs([(record, run)], 2)


def _step(observer, records):
    """Single cycles: ``on_cycle`` (the per-record reference), or
    one-record blocks for the sanitizer."""
    if isinstance(observer, TraceSanitizer):
        feed_records(observer, records)
    else:
        for record in records:
            observer.on_cycle(record)


def _feed(observer, run, batched):
    _step(observer, PREFIX)
    if batched:
        observer.on_block(_stall_block(STALL, run))
    else:
        _step(observer, [shifted_record(STALL, i) for i in range(run)])
    suffix = _suffix(STALL.cycle + run)
    _step(observer, suffix)
    observer.on_finish(suffix[-1].cycle)
    return observer


def _signature(profiler):
    return [(s.cycle, s.interval, s.weights, s.category)
            for s in profiler.samples]


PROFILERS = {
    "software": lambda: SoftwareProfiler(SampleSchedule(7)),
    "software-skid": lambda: SoftwareProfiler(SampleSchedule(7),
                                              skid_cycles=5),
    "dispatch": lambda: DispatchProfiler(SampleSchedule(7)),
    "lci": lambda: LciProfiler(SampleSchedule(7)),
    "nci": lambda: NciProfiler(SampleSchedule(7)),
    "nci-ilp": lambda: NciIlpProfiler(SampleSchedule(7)),
    "tip": lambda: TipProfiler(SampleSchedule(7), PROGRAM),
    "tip-ilp": lambda: TipIlpProfiler(SampleSchedule(7), PROGRAM),
}

#: Run lengths: shorter than a period, spanning one sample, spanning
#: several (the skid delivery lands mid-run in the long case).
RUNS = (1, 5, 21)


@pytest.mark.parametrize("name", sorted(PROFILERS))
@pytest.mark.parametrize("run", RUNS)
def test_profiler_stall_run_equivalence(name, run):
    build = PROFILERS[name]
    stepped = _feed(build(), run, batched=False)
    batched = _feed(build(), run, batched=True)
    assert _signature(batched) == _signature(stepped)


#: Oracle stall runs of every classification: the records before the
#: run, then the run's record.  A dispatch ends each run.
ORACLE_RUNS = {
    "head": (PREFIX, STALL),
    "mispredict": ([PREFIX[0],
                    make_record(1, committed=[(0x10004, True, False)])],
                   make_record(2)),
    "csr": ([PREFIX[0], make_record(1, committed=[(0x10004, False, True)])],
            make_record(2)),
    "exception": ([PREFIX[0], make_record(1, exception=0x10004,
                                          exception_is_ordering=True)],
                  make_record(2)),
    "drain": (PREFIX, make_record(2)),
}

#: The Oracle unwatched and watching a periodic and a random schedule.
ORACLE_WATCHES = {
    "unwatched": lambda: [],
    "periodic": lambda: [SampleSchedule(7)],
    "random": lambda: [SampleSchedule(7, "random", 5)],
}


def _feed_oracle(kind, watch, run, batched):
    oracle = OracleProfiler(PROGRAM, watch_schedules=ORACLE_WATCHES[watch]())
    prefix, stall = ORACLE_RUNS[kind]
    for record in prefix:
        oracle.on_cycle(record)
    if batched:
        oracle.on_block(_stall_block(stall, run))
    else:
        for i in range(run):
            oracle.on_cycle(shifted_record(stall, i))
    end = stall.cycle + run
    oracle.on_cycle(make_record(end, rob_head=0x10008,
                                dispatched=[0x10008]))
    final = end
    for record in _suffix(end + 1):
        oracle.on_cycle(record)
        final = record.cycle
    oracle.on_finish(final)
    return oracle.report


@pytest.mark.parametrize("kind", sorted(ORACLE_RUNS))
@pytest.mark.parametrize("watch", sorted(ORACLE_WATCHES))
@pytest.mark.parametrize("run", RUNS)
def test_oracle_stall_run_equivalence(kind, watch, run):
    stepped = _feed_oracle(kind, watch, run, batched=False)
    batched = _feed_oracle(kind, watch, run, batched=True)
    assert oracle_tables(batched) == oracle_tables(stepped)
    assert sum(stepped.profile.values()) == stepped.total_cycles + 1
    if watch != "unwatched":
        assert stepped.intervals and stepped.watched


@pytest.mark.parametrize("run", RUNS)
def test_sanitizer_stall_run_equivalence(run):
    stepped = _feed(TraceSanitizer(program=PROGRAM, fail_fast=False),
                    run, batched=False)
    batched = _feed(TraceSanitizer(program=PROGRAM, fail_fast=False),
                    run, batched=True)
    assert stepped.violations == []
    assert batched.violations == []
    assert batched.cycles_checked == stepped.cycles_checked


def test_sanitizer_batched_stall_advances_cursor():
    """The stall block must move the monotonicity cursor to its last
    cycle: a gap right after the run is still caught (S001)."""
    sanitizer = TraceSanitizer(fail_fast=False)
    feed_records(sanitizer, [make_record(0)])
    sanitizer.on_block(_stall_block(make_record(1, rob_head=0x10008), 5))
    feed_records(sanitizer, [make_record(8, rob_head=0x10008)])  # 6-7 gone
    assert [d.rule for d in sanitizer.violations] == ["S001"]
    assert sanitizer.violations[0].cycle == 8


def test_sanitizer_batched_commit_record_falls_back():
    """A run whose record commits is not a pure stall: the column
    checks must visit every cycle of it, so a commit-width violation
    is reported once per cycle of the run."""
    sanitizer = TraceSanitizer(program=PROGRAM, fail_fast=False,
                               commit_width=1)
    record = make_record(0, committed=[(0x10000, False, False),
                                       (0x10004, False, False)])
    sanitizer.on_block(_stall_block(record, 3))
    rules = [d.rule for d in sanitizer.violations]
    assert rules.count("S002") == 3
    assert sanitizer.cycles_checked == 3
