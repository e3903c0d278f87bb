"""Property-based tests (hypothesis) on core data structures and
invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.error import overlap
from repro.core.oracle import OracleProfiler
from repro.core.sampling import SampleSchedule
from repro.cpu.branch import ReturnAddressStack, TagePredictor
from repro.cpu.trace import replay
from repro.mem.cache import Cache, MainMemory
from repro.mem.tlb import PageTable, vpn_of
from tests.test_oracle import BR, I1, I3, I5, LOAD, PROGRAM
from conftest import make_record

# -- sampling schedules -------------------------------------------------------


@given(period=st.integers(1, 50), horizon=st.integers(1, 400))
@settings(max_examples=60)
def test_periodic_schedule_spacing(period, horizon):
    schedule = SampleSchedule(period)
    fires = [c for c in range(horizon) if schedule.is_sample(c)]
    assert fires == list(range(period - 1, horizon, period))


@given(period=st.integers(1, 50), seed=st.integers(0, 1000),
       horizon=st.integers(1, 400))
@settings(max_examples=60)
def test_random_schedule_one_per_interval(period, seed, horizon):
    schedule = SampleSchedule(period, "random", seed)
    fires = [c for c in range(horizon) if schedule.is_sample(c)]
    for i, cycle in enumerate(fires):
        assert i * period <= cycle < (i + 1) * period
    # Number of complete intervals in the horizon bounds the count.
    assert horizon // period - 1 <= len(fires) <= horizon // period + 1


# -- overlap metric -----------------------------------------------------------

weight_maps = st.dictionaries(st.integers(0, 20),
                              st.floats(0.0, 1.0, allow_nan=False),
                              max_size=8)


@given(a=weight_maps, b=weight_maps)
@settings(max_examples=100)
def test_overlap_bounds_and_symmetry(a, b):
    value = overlap(a, b)
    assert 0.0 <= value <= min(sum(a.values()), sum(b.values())) + 1e-9
    assert value == pytest.approx(overlap(b, a))


@given(a=weight_maps)
@settings(max_examples=50)
def test_overlap_with_self_is_total(a):
    assert overlap(a, a) == pytest.approx(sum(a.values()))


# -- oracle conservation ------------------------------------------------------

_commit_entry = st.sampled_from([I1, LOAD, I3, BR, I5])


@st.composite
def trace_strategy(draw):
    """Random but well-formed commit-stage traces."""
    length = draw(st.integers(2, 60))
    records = []
    for cycle in range(length):
        kind = draw(st.sampled_from(
            ["commit", "stall", "empty", "dispatch"]))
        if kind == "commit":
            n = draw(st.integers(1, 2))
            commits = [(draw(_commit_entry), draw(st.booleans()), False)
                       for _ in range(n)]
            records.append(make_record(cycle, committed=commits,
                                       rob_head=draw(_commit_entry)))
        elif kind == "stall":
            records.append(make_record(cycle,
                                       rob_head=draw(_commit_entry)))
        elif kind == "dispatch":
            addr = draw(_commit_entry)
            records.append(make_record(cycle, rob_head=addr,
                                       dispatched=[addr]))
        else:
            records.append(make_record(cycle))
    # Terminate with a dispatch so trailing drains resolve.
    records.append(make_record(length, rob_head=I1, dispatched=[I1]))
    return records


@given(records=trace_strategy())
@settings(max_examples=60, deadline=None)
def test_oracle_attributes_every_cycle_exactly_once(records):
    oracle = OracleProfiler(PROGRAM)
    replay(records, oracle)
    total = sum(oracle.report.profile.values())
    assert total == pytest.approx(len(records))
    assert sum(oracle.report.category_totals.values()) == \
        pytest.approx(len(records))


# -- cache model --------------------------------------------------------------


@given(addrs=st.lists(st.integers(0, 1 << 16), min_size=1, max_size=60))
@settings(max_examples=60, deadline=None)
def test_cache_latency_at_least_hit_latency(addrs):
    cache = Cache("L1", 1024, 2, 64, 2, 4,
                  MainMemory(latency=30, cycles_per_access=2))
    cycle = 0
    for addr in addrs:
        result = cache.access(addr, cycle)
        assert result.latency >= cache.hit_latency
        cycle += 7


@given(addrs=st.lists(st.integers(0, 1 << 14), min_size=1, max_size=40))
@settings(max_examples=40, deadline=None)
def test_cache_repeat_access_hits(addrs):
    cache = Cache("big", 1 << 16, 8, 64, 2, 8,
                  MainMemory(latency=30, cycles_per_access=0))
    cycle = 0
    for addr in addrs:
        cache.access(addr, cycle)
        cycle += 100
    # Working set fits: every re-access hits.
    for addr in addrs:
        result = cache.access(addr, cycle)
        assert result.hit
        cycle += 100


# -- page table ---------------------------------------------------------------


@given(pages=st.sets(st.integers(0, 1000), max_size=40))
@settings(max_examples=40)
def test_page_table_map_unmap(pages):
    table = PageTable()
    for vpn in pages:
        table.map_page(vpn)
    assert len(table) == len(pages)
    for vpn in pages:
        assert table.is_mapped(vpn)
        table.unmap_page(vpn)
    assert len(table) == 0


@given(lo=st.integers(0, 1 << 20), size=st.integers(1, 1 << 16))
@settings(max_examples=40)
def test_page_table_range_covers_all_addresses(lo, size):
    table = PageTable()
    table.map_range(lo, lo + size)
    for addr in (lo, lo + size // 2, lo + size - 1):
        assert table.is_mapped(vpn_of(addr))


# -- RAS / TAGE ---------------------------------------------------------------


@given(pushes=st.lists(st.integers(0, 1 << 20), max_size=12))
@settings(max_examples=50)
def test_ras_lifo_property(pushes):
    ras = ReturnAddressStack(entries=16)
    for addr in pushes:
        ras.push(addr)
    for addr in reversed(pushes):
        assert ras.pop() == addr
    assert ras.pop() is None


@given(outcomes=st.lists(st.booleans(), min_size=1, max_size=120))
@settings(max_examples=40, deadline=None)
def test_tage_update_never_crashes_and_counts(outcomes):
    predictor = TagePredictor(base_entries=64, tagged_entries=32)
    pc = 0x4000
    for taken in outcomes:
        prediction = predictor.predict(pc)
        predictor.update(pc, taken, prediction)
    assert predictor.lookups == len(outcomes)
    assert 0 <= predictor.mispredicts <= len(outcomes)
