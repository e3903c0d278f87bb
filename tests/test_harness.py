"""Experiment harness tests."""

import os

import pytest

from repro.analysis import Granularity, per_sample_error
from repro.harness import (ALL_POLICIES, ProfilerConfig, default_profilers,
                           replay_experiment, run_experiment, run_suite,
                           run_workload)
from repro.isa.assembler import assemble
from repro.kernel import Kernel
from repro.workloads import (build_suite, build_workload, k_int_ilp,
                             k_stream_load)

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

WORKLOAD = build_workload("t", [
    k_int_ilp("compute", 800, width=6),
    k_stream_load("stream", 300, 0x20_0000, 64 * 1024),
])


def test_default_profilers_cover_paper_lineup():
    configs = default_profilers(50)
    assert [c.name for c in configs] == list(ALL_POLICIES)
    assert all(c.period == 50 for c in configs)


def test_profiler_config_build():
    config = ProfilerConfig("TIP", 25)
    profiler = config.build(WORKLOAD.program)
    assert profiler.name == "TIP"
    assert profiler.schedule.period == 25


def test_unknown_policy_raises():
    with pytest.raises(ValueError, match="unknown profiler policy"):
        ProfilerConfig("Magic", 10).build(WORKLOAD.program)


def test_duplicate_labels_rejected():
    configs = [ProfilerConfig("TIP", 10), ProfilerConfig("TIP", 20)]
    with pytest.raises(ValueError, match="duplicate profiler label"):
        run_experiment(WORKLOAD.program, configs,
                       premapped_data=WORKLOAD.premapped)


def test_labels_disambiguate_same_policy():
    configs = [ProfilerConfig("TIP", 10, label="TIP@10"),
               ProfilerConfig("TIP", 40, label="TIP@40")]
    result = run_experiment(WORKLOAD.program, configs,
                            premapped_data=WORKLOAD.premapped)
    assert set(result.profilers) == {"TIP@10", "TIP@40"}
    dense = result.profilers["TIP@10"]
    sparse = result.profilers["TIP@40"]
    assert len(dense.samples) > len(sparse.samples)


def test_experiment_result_errors_and_profiles():
    result = run_workload(WORKLOAD, default_profilers(17))
    errors = result.errors(Granularity.INSTRUCTION)
    assert set(errors) == set(ALL_POLICIES)
    for value in errors.values():
        assert 0.0 <= value <= 1.0
    profile = result.profile("TIP", Granularity.FUNCTION)
    assert profile
    assert sum(profile.values()) == pytest.approx(1.0)
    oracle = result.oracle_profile(Granularity.FUNCTION)
    assert sum(oracle.values()) == pytest.approx(1.0)


def test_same_schedule_samples_same_cycles():
    """The paper's key methodological property: all profilers observe the
    exact same sampled cycles."""
    result = run_workload(WORKLOAD, default_profilers(23))
    cycle_sets = {name: [s.cycle for s in p.samples]
                  for name, p in result.profilers.items()}
    reference = cycle_sets["TIP"]
    for cycles in cycle_sets.values():
        assert cycles == reference


def test_suite_runner_subset():
    from repro.workloads import build_suite
    suite = run_suite(build_suite(["lbm"], scale=0.05), period=29)
    assert "lbm" in suite.results
    errors = suite.errors(Granularity.INSTRUCTION)
    assert "lbm" in errors
    averages = suite.average_errors(Granularity.INSTRUCTION)
    assert set(averages) == set(ALL_POLICIES)
    stacks = suite.cycle_stacks()
    assert stacks["lbm"].total > 0


def test_random_mode_profilers():
    configs = default_profilers(31, mode="random", seed=11,
                                policies=("NCI", "TIP"))
    result = run_workload(WORKLOAD, configs)
    nci = result.profilers["NCI"]
    tip = result.profilers["TIP"]
    assert [s.cycle for s in nci.samples] == [s.cycle for s in tip.samples]
    # Random sampling draws one sample per interval; the unbiased
    # (Horvitz-Thompson) weight is the constant period.
    assert {s.interval for s in tip.samples} == {31}
    # The sample cycles themselves are irregular.
    deltas = {b.cycle - a.cycle for a, b in zip(tip.samples,
                                                tip.samples[1:])}
    assert len(deltas) > 1


# -- the harness Oracle watches no schedule -----------------------------------


def _live(tmp_path):
    return [run_workload(WORKLOAD, default_profilers(17))]


def _cache_hit(tmp_path):
    run_workload(WORKLOAD, default_profilers(17), sim="fast",
                 cache=str(tmp_path))
    result = run_workload(WORKLOAD, default_profilers(17), sim="fast",
                          cache=str(tmp_path))
    assert result.cached
    return [result]


def _trace_replay(tmp_path):
    with open(os.path.join(DATA, "golden.s")) as handle:
        image = Kernel().boot(assemble(handle.read(), name="golden.s"))
    return [replay_experiment(os.path.join(DATA, "golden.tiptrace"),
                              image, default_profilers(17))]


def _pooled(tmp_path):
    suite = run_suite(build_suite(["lbm", "mcf"], scale=0.05),
                      profilers=default_profilers(17), jobs=2)
    assert suite.ok and len(suite.results) == 2
    return list(suite.results.values())


@pytest.mark.parametrize("path", [_live, _cache_hit, _trace_replay,
                                  _pooled],
                         ids=["live", "cache-hit", "replay", "pooled"])
def test_harness_oracle_watches_no_schedule(path, tmp_path):
    """Every report reads the Oracle's whole-run attribution, so no
    harness path pays for per-sample intervals; per-sample errors need
    a caller's own watched Oracle."""
    for result in path(tmp_path):
        assert result.oracle.intervals == {}
        assert result.oracle.watched == {}
        assert result.oracle.profile
        with pytest.raises(ValueError, match="did not watch"):
            per_sample_error(result.profilers["TIP"], result.oracle,
                             result.symbolizer, Granularity.INSTRUCTION)
