"""Oracle profiler tests, including the paper's Figure 4 scenarios.

The hand-built traces mirror Figure 4's 2-wide examples: Computing,
Stalled (partially hidden LLC hit), Flushed (mispredicted branch) and
Drained (instruction cache miss).
"""

import pytest

from repro.core.oracle import OracleProfiler
from repro.core.samples import Category
from repro.cpu.trace import replay
from repro.isa.assembler import assemble
from conftest import make_record

# A program providing addresses/types for the hand traces.  Addresses:
# 0x10000 add(I1), 0x10004 ld(load), 0x10008 add(I3), 0x1000c bne(branch),
# 0x10010 add(I5), 0x10014 sd(store).
PROGRAM = assemble("""
.func f
    add x1, x2, x3
    ld  x4, 0(x1)
    add x5, x4, x1
    bne x1, x2, f
    add x6, x5, x1
    sd  x6, 0(x1)
    halt
""")

I1, LOAD, I3, BR, I5, STORE = (0x10000 + 4 * i for i in range(6))


def _oracle(records):
    oracle = OracleProfiler(PROGRAM)
    replay(records, oracle)
    return oracle.report


def test_computing_splits_cycle_across_commits():
    """Figure 4a: co-committing instructions share the cycle equally."""
    report = _oracle([
        make_record(0, committed=[(I1, False, False), (I3, False, False)]),
    ])
    assert report.profile[I1] == pytest.approx(0.5)
    assert report.profile[I3] == pytest.approx(0.5)
    assert report.category_totals[Category.EXECUTION] == pytest.approx(1.0)


def test_stalled_charges_rob_head():
    """Figure 4b: 40 stall cycles go to the load at the head of the ROB."""
    records = [make_record(0, committed=[(I1, False, False)],
                           rob_head=LOAD)]
    records += [make_record(c, rob_head=LOAD) for c in range(1, 41)]
    records += [make_record(41, committed=[(LOAD, False, False),
                                           (I3, False, False)])]
    report = _oracle(records)
    assert report.profile[LOAD] == pytest.approx(40 + 0.5)
    assert report.profile[I1] == pytest.approx(1.0)
    assert report.profile[I3] == pytest.approx(0.5)
    assert report.category_totals[Category.LOAD_STALL] == pytest.approx(40)


def test_stall_category_follows_instruction_type():
    report = _oracle([make_record(0, rob_head=STORE),
                      make_record(1, rob_head=I1)])
    assert report.category_totals[Category.STORE_STALL] == pytest.approx(1)
    assert report.category_totals[Category.ALU_STALL] == pytest.approx(1)


def test_flushed_charges_mispredicted_branch():
    """Figure 4c: empty-ROB cycles after a mispredict go to the branch."""
    records = [make_record(0, committed=[(I1, False, False),
                                         (BR, True, False)])]
    records += [make_record(c) for c in range(1, 5)]       # empty ROB
    records += [make_record(5, rob_head=I5, dispatched=[I5])]
    records += [make_record(6, committed=[(I5, False, False)])]
    report = _oracle(records)
    assert report.profile[BR] == pytest.approx(0.5 + 4)
    # I5: one Stalled cycle at dispatch plus its own (solo) commit cycle.
    assert report.profile[I5] == pytest.approx(1 + 1)
    assert report.category_totals[Category.MISPREDICT] == pytest.approx(4)


def test_csr_flush_counts_as_misc_flush():
    records = [make_record(0, committed=[(I1, False, True)])]
    records += [make_record(c) for c in range(1, 4)]
    records += [make_record(4, committed=[(I3, False, False)],
                            dispatched=[I3])]
    report = _oracle(records)
    assert report.profile[I1] == pytest.approx(1 + 3)
    assert report.category_totals[Category.MISC_FLUSH] == pytest.approx(3)


def test_drained_charges_first_dispatched():
    """Figure 4d: empty-ROB cycles from an I-cache miss go to the first
    instruction that enters the ROB afterwards."""
    records = [make_record(0, committed=[(I1, False, False),
                                         (I3, False, False)])]
    records += [make_record(c) for c in range(1, 41)]      # drained
    records += [make_record(41, rob_head=I5, dispatched=[I5])]
    records += [make_record(42, committed=[(I5, False, False)])]
    report = _oracle(records)
    assert report.profile[I5] == pytest.approx(40 + 1 + 1)
    assert report.category_totals[Category.FRONTEND] == pytest.approx(40)


def test_exception_charges_excepting_instruction():
    """Section 2.2 page-miss walkthrough: exception cycles go to the
    faulting load until the handler dispatches."""
    records = [make_record(0, rob_head=LOAD)]
    records += [make_record(1, exception=LOAD)]
    records += [make_record(c) for c in (2, 3)]
    records += [make_record(4, rob_head=I5, dispatched=[I5])]
    report = _oracle(records)
    assert report.profile[LOAD] == pytest.approx(1 + 3)
    assert report.category_totals[Category.MISC_FLUSH] == pytest.approx(3)


def test_every_cycle_attributed_exactly_once():
    records = [
        make_record(0, committed=[(I1, False, False)], rob_head=LOAD),
        make_record(1, rob_head=LOAD),
        make_record(2, committed=[(LOAD, False, False),
                                  (I3, False, False), (BR, True, False)]),
        make_record(3),
        make_record(4, rob_head=I5, dispatched=[I5]),
        make_record(5, committed=[(I5, False, False)]),
    ]
    report = _oracle(records)
    assert sum(report.profile.values()) == pytest.approx(len(records))
    assert sum(report.category_totals.values()) == pytest.approx(len(records))


def test_unresolved_drain_dropped_at_finish():
    records = [make_record(0, committed=[(I1, False, False)]),
               make_record(1), make_record(2)]
    report = _oracle(records)
    assert sum(report.profile.values()) == pytest.approx(1.0)


def test_watch_cycles_capture_attribution():
    from repro.core.sampling import SampleSchedule
    schedule = SampleSchedule(period=2)  # samples at cycles 1, 3, 5 ...
    oracle = OracleProfiler(PROGRAM, watch_schedules=[schedule])
    replay([make_record(0, committed=[(I1, False, False)], rob_head=LOAD),
            make_record(1, rob_head=LOAD),
            make_record(2, committed=[(LOAD, False, False)])], oracle)
    weights, category = oracle.report.watched[1]
    assert weights == [(LOAD, 1.0)]
    assert category is Category.LOAD_STALL


def test_interval_accumulation_per_schedule():
    from repro.core.sampling import SampleSchedule
    schedule = SampleSchedule(period=2)  # samples at cycles 1, 3, 5 ...
    oracle = OracleProfiler(PROGRAM, watch_schedules=[schedule])
    replay([make_record(0, committed=[(I1, False, False)]),
            make_record(1, rob_head=LOAD),
            make_record(2, rob_head=LOAD),
            make_record(3, committed=[(LOAD, False, False)])], oracle)
    intervals = oracle.report.intervals[(2, "periodic", 0)]
    assert intervals[1] == {I1: 1.0, LOAD: 1.0}
    assert intervals[3] == {LOAD: 2.0}


def test_normalized_profile_sums_to_one():
    report = _oracle([
        make_record(0, committed=[(I1, False, False)]),
        make_record(1, rob_head=LOAD),
    ])
    normalized = report.normalized_profile()
    assert sum(normalized.values()) == pytest.approx(1.0)


def test_flush_breakdown_detail():
    """Oracle splits flush time into fine-grained kinds (the paper's
    'more fine-grained categories' extension)."""
    from repro.core.samples import FlushKind
    records = [
        make_record(0, committed=[(BR, True, False)]),
        make_record(1),                                   # mispredict
        make_record(2, rob_head=I5, dispatched=[I5]),
        make_record(3, committed=[(I5, False, True)]),
        make_record(4),                                   # CSR flush
        make_record(5, rob_head=I3, dispatched=[I3]),
        make_record(6, exception=LOAD),                   # page fault
        make_record(7),
        make_record(8, rob_head=I1, dispatched=[I1]),
        make_record(9, exception=LOAD, exception_is_ordering=True),
        make_record(10),
        make_record(11, rob_head=I1, dispatched=[I1]),
    ]
    report = _oracle(records)
    breakdown = report.flush_breakdown
    assert breakdown[FlushKind.MISPREDICT] == pytest.approx(1.0)
    assert breakdown[FlushKind.CSR] == pytest.approx(1.0)
    assert breakdown[FlushKind.EXCEPTION] == pytest.approx(2.0)
    assert breakdown[FlushKind.ORDERING] == pytest.approx(2.0)
    # The breakdown tallies with the coarse categories.
    coarse = (report.category_totals[Category.MISPREDICT]
              + report.category_totals[Category.MISC_FLUSH])
    assert sum(breakdown.values()) == pytest.approx(coarse)
