"""Profile diffing tests."""

import pytest

from repro.analysis.diff import SymbolDelta, diff_profiles, render_diff


def test_symbol_delta_properties():
    delta = SymbolDelta("ceil", 100.0, 40.0)
    assert delta.delta == -60.0
    assert delta.speedup == pytest.approx(2.5)


def test_delta_to_zero_is_infinite_speedup():
    assert SymbolDelta("f", 10.0, 0.0).speedup == float("inf")
    assert SymbolDelta("f", 0.0, 0.0).speedup == 1.0


def test_diff_sorts_by_impact():
    diff = diff_profiles({"a": 100.0, "b": 50.0, "c": 10.0},
                         {"a": 20.0, "b": 55.0, "c": 10.0})
    assert diff.deltas[0].symbol == "a"  # biggest absolute change
    assert diff.overall_speedup == pytest.approx(160.0 / 85.0)


def test_improvements_and_regressions():
    diff = diff_profiles({"a": 100.0, "b": 50.0},
                         {"a": 20.0, "b": 70.0})
    improvements = diff.improvements()
    regressions = diff.regressions()
    assert [d.symbol for d in improvements] == ["a"]
    assert [d.symbol for d in regressions] == ["b"]


def test_symbols_only_in_one_profile():
    diff = diff_profiles({"old": 10.0}, {"new": 5.0})
    symbols = {d.symbol: d for d in diff.deltas}
    assert symbols["old"].after == 0.0
    assert symbols["new"].before == 0.0


def test_render_diff():
    diff = diff_profiles({"ceil": 100.0}, {"ceil": 40.0})
    text = render_diff(diff, title="imagick fix")
    assert "imagick fix" in text
    assert "ceil" in text
    assert "2.50x" in text


def test_end_to_end_imagick_diff():
    """The Figure 13 workflow through the diff API."""
    from repro.analysis import Granularity
    from repro.harness import ProfilerConfig, run_workload
    from repro.workloads import build_imagick

    configs = [ProfilerConfig("TIP", 31)]
    orig = run_workload(build_imagick(False, pixels=250, morph_iters=300),
                        configs)
    opt = run_workload(build_imagick(True, pixels=250, morph_iters=300),
                       configs)
    diff = diff_profiles(
        orig.profile("TIP", Granularity.FUNCTION, normalized=False),
        opt.profile("TIP", Granularity.FUNCTION, normalized=False))
    assert diff.overall_speedup > 1.4
    improved = {d.symbol for d in diff.improvements()}
    assert {"ceil", "floor"} <= improved
    # MorphologyApply is not an improvement target.
    morph = next(d for d in diff.deltas if d.symbol == "MorphologyApply")
    assert abs(morph.delta) < 0.25 * morph.before
