"""Sampling schedule tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.sampling import (CORE_CLOCK_HZ, SampleSchedule,
                                 period_for_frequency)


def _fire_cycles(schedule, horizon):
    return [c for c in range(horizon) if schedule.is_sample(c)]


def test_periodic_schedule_fires_every_period():
    schedule = SampleSchedule(period=5)
    assert _fire_cycles(schedule, 20) == [4, 9, 14, 19]


def test_periodic_with_offset():
    schedule = SampleSchedule(period=5, offset=0)
    assert _fire_cycles(schedule, 20) == [0, 5, 10, 15]


def test_period_one_samples_every_cycle():
    schedule = SampleSchedule(period=1)
    assert _fire_cycles(schedule, 5) == [0, 1, 2, 3, 4]


def test_random_schedule_one_sample_per_interval():
    schedule = SampleSchedule(period=10, mode="random", seed=3)
    fires = _fire_cycles(schedule, 100)
    assert len(fires) == 10
    for i, cycle in enumerate(fires):
        assert i * 10 <= cycle < (i + 1) * 10


def test_random_schedule_is_deterministic_per_seed():
    a = _fire_cycles(SampleSchedule(10, "random", seed=7), 200)
    b = _fire_cycles(SampleSchedule(10, "random", seed=7), 200)
    c = _fire_cycles(SampleSchedule(10, "random", seed=8), 200)
    assert a == b
    assert a != c


def test_clone_reproduces_cycles():
    schedule = SampleSchedule(13, "random", seed=5)
    clone = schedule.clone()
    assert _fire_cycles(schedule, 300) == _fire_cycles(clone, 300)


def test_clone_after_consumption_restarts():
    schedule = SampleSchedule(4)
    _fire_cycles(schedule, 10)
    clone = schedule.clone()
    assert _fire_cycles(clone, 10) == [3, 7]


def test_invalid_parameters():
    with pytest.raises(ValueError):
        SampleSchedule(0)
    with pytest.raises(ValueError):
        SampleSchedule(10, mode="bogus")


def test_period_for_frequency():
    assert period_for_frequency(4000) == CORE_CLOCK_HZ // 4000
    assert period_for_frequency(CORE_CLOCK_HZ) == 1
    assert period_for_frequency(CORE_CLOCK_HZ * 10) == 1  # clamped


def test_is_sample_ignores_skipped_cycles():
    schedule = SampleSchedule(period=5)
    # Jump straight past several sample points; the schedule must advance.
    assert not schedule.is_sample(20)
    assert schedule.is_sample(24)


# -- fast_forward: deterministic mid-stream resumption ------------------------


@given(period=st.integers(1, 50),
       mode=st.sampled_from(["periodic", "random"]),
       seed=st.integers(0, 1000),
       start=st.integers(0, 400),
       horizon=st.integers(1, 200))
@settings(max_examples=60, deadline=None)
def test_fast_forward_equals_serial_consumption(period, mode, seed,
                                                start, horizon):
    """fast_forward(start) leaves a schedule in exactly the state a
    cycle-by-cycle is_sample() walk over [0, start) produces -- the
    property sharded replay relies on for bit-identical sampling."""
    walked = SampleSchedule(period, mode, seed)
    prev = -1
    for cycle in range(start):
        if walked.is_sample(cycle):
            prev = cycle
    jumped = SampleSchedule(period, mode, seed)
    assert jumped.fast_forward(start) == prev
    assert jumped.next_sample == walked.next_sample
    # Identical future: same sample cycles (and same RNG stream).
    future_walked = [c for c in range(start, start + horizon)
                     if walked.is_sample(c)]
    future_jumped = [c for c in range(start, start + horizon)
                     if jumped.is_sample(c)]
    assert future_walked == future_jumped


def test_fast_forward_zero_is_identity():
    schedule = SampleSchedule(13, "random", seed=3)
    reference = SampleSchedule(13, "random", seed=3)
    assert schedule.fast_forward(0) == -1
    assert schedule.next_sample == reference.next_sample
