"""Suite-runner result aggregation tests."""

import pytest

from repro.analysis import Granularity
from repro.harness import ExperimentResult, SuiteResult, run_suite
from repro.workloads import build_suite


@pytest.fixture(scope="module")
def small_suite():
    return run_suite(build_suite(["exchange2", "lbm"], scale=0.1),
                     period=23)


def test_errors_matrix_shape(small_suite):
    table = small_suite.errors(Granularity.INSTRUCTION)
    assert set(table) == {"exchange2", "lbm"}
    for row in table.values():
        assert "TIP" in row and "Software" in row


def test_errors_policy_filter(small_suite):
    table = small_suite.errors(Granularity.INSTRUCTION,
                               policies=("TIP", "NCI"))
    for row in table.values():
        assert set(row) == {"TIP", "NCI"}


class _UnreadableProfiler:
    """A profiler whose samples raise when read."""

    @property
    def samples(self):
        raise AssertionError("read the samples of an unrequested profiler")

    sampled_cycles = samples


def test_errors_compute_only_requested_policies(small_suite):
    lbm = small_suite["lbm"]
    result = ExperimentResult(
        lbm.program, lbm.oracle,
        {**lbm.profilers, "Unreadable": _UnreadableProfiler()}, lbm.stats)
    suite = SuiteResult({"lbm": result})
    for granularity in Granularity:
        expected = lbm.error("TIP", granularity)
        assert suite.errors(granularity, ["TIP"]) == \
            {"lbm": {"TIP": expected}}
        assert suite.average_errors(granularity, ["TIP"]) == \
            {"TIP": expected}


def test_average_errors_are_means(small_suite):
    table = small_suite.errors(Granularity.FUNCTION)
    averages = small_suite.average_errors(Granularity.FUNCTION)
    for policy, value in averages.items():
        manual = sum(row[policy] for row in table.values()) / len(table)
        assert value == pytest.approx(manual)


def test_getitem(small_suite):
    result = small_suite["lbm"]
    assert result.stats.cycles > 0
    with pytest.raises(KeyError):
        small_suite["nonexistent"]


def test_cycle_stacks_cover_all(small_suite):
    stacks = small_suite.cycle_stacks()
    assert set(stacks) == {"exchange2", "lbm"}
    for stack in stacks.values():
        assert stack.total > 0


def test_average_errors_empty():
    from repro.harness.runner import SuiteResult
    empty = SuiteResult({})
    assert empty.average_errors(Granularity.INSTRUCTION) == {}


def test_profile_unnormalized(small_suite):
    result = small_suite["exchange2"]
    raw = result.profile("TIP", Granularity.FUNCTION, normalized=False)
    assert sum(raw.values()) > 1.0  # raw cycle counts, not fractions
    tip = result.profilers["TIP"]
    assert sum(raw.values()) == pytest.approx(
        sum(s.interval for s in tip.samples if s.weights), rel=0.01)
