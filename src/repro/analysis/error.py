"""The profile error metric (Section 4, "Quantifying profile error").

Each sample stands for the whole interval since the previous sample.  The
practical profiler attributes the interval to the symbol(s) it sampled;
Oracle attributes every cycle of the interval to golden symbols.  The
correctly-attributed cycles of a sample are the overlap between the two,
and the relative error over a run is

    e = (c_total - c_correct) / c_total .

This contains both error sources the paper describes: *systematic* error
(the profiler picked the wrong symbol for the sampled cycle) and
*unsystematic* error (the sampled cycle does not represent the whole
interval), the latter shrinking as the sampling frequency rises --
which is exactly the Figure 11a behaviour.

:func:`profile_errors` evaluates the metric over whole profiles: each
sampled profile, every sample weighted by its interval, against Oracle's
full profile, which it symbolizes and normalizes once for all the
profilers it is given (:func:`profile_error` is its one-profiler case).
Only the stricter :func:`per_sample_error` reads Oracle's watched
intervals, so it needs an Oracle built with the profiler's schedule in
``watch_schedules``; the harness Oracle watches none.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

from ..core.oracle import OracleReport, schedule_key
from ..core.profiler import SamplingProfiler
from ..core.samples import Sample
from .symbols import Granularity, Symbolizer


def overlap(weights_a: Dict, weights_b: Dict) -> float:
    """Weight-vector overlap: sum over symbols of min(a, b)."""
    if len(weights_b) < len(weights_a):
        weights_a, weights_b = weights_b, weights_a
    return sum(min(weight, weights_b.get(sym, 0.0))
               for sym, weight in weights_a.items())


def sample_error(sample: Sample, golden: Dict[int, float],
                 symbolizer: Symbolizer,
                 granularity: Granularity) -> Tuple[float, float]:
    """(total, correct) cycles for one sample against its golden interval."""
    total = sum(golden.values())
    if total <= 0.0:
        return 0.0, 0.0
    if not sample.weights:
        return total, 0.0  # unresolved sample: fully misattributed
    gold = symbolizer.aggregate(golden.items(), granularity)
    mine = symbolizer.aggregate(
        [(addr, fraction * total) for addr, fraction in sample.weights],
        granularity)
    return total, overlap(mine, gold)


def profile_errors(profilers: Mapping[str, SamplingProfiler],
                   oracle: OracleReport, symbolizer: Symbolizer,
                   granularity: Granularity) -> Dict[str, float]:
    """Relative profile error of each of *profilers* versus Oracle.

    Each sampled profile (every sample weighted by the interval it
    represents) is compared against Oracle's exact time distribution at
    the requested granularity; the error is the fraction of time
    attributed to the wrong symbol,

        e = (c_total - c_correct) / c_total ,

    with ``c_correct`` the overlap of the two distributions.  A profiler
    whose policy matches Oracle cycle-for-cycle still carries
    *unsystematic* (statistical) error that decays with the number of
    samples; policy mistakes add a *systematic* floor that no sampling
    rate removes.

    Oracle's distribution is symbolized and normalized once, however
    many profilers there are, and every address is symbolized through
    ``symbolizer.table(granularity)``.  The sums run in the same order
    for any set of profilers, so each error is the same float alone or
    in company.  Returns label -> error in the order of *profilers*.
    """
    total = float(oracle.total_cycles) or sum(oracle.profile.values())
    if total <= 0.0:
        return dict.fromkeys(profilers, 0.0)
    table = symbolizer.table(granularity)
    gold: Dict = {}
    for addr, cycles in oracle.profile.items():
        sym = table[addr]
        gold[sym] = gold.get(sym, 0.0) + cycles / total
    errors: Dict[str, float] = {}
    for name, profiler in profilers.items():
        sampled_time = float(profiler.sampled_cycles)
        if sampled_time <= 0.0:
            errors[name] = 0.0
            continue
        mine: Dict = {}
        for sample in profiler.samples:
            scale = sample.interval / sampled_time
            for addr, fraction in sample.weights:
                sym = table[addr]
                mine[sym] = mine.get(sym, 0.0) + fraction * scale
        errors[name] = 1.0 - overlap(mine, gold)
    return errors


def profile_error(profiler: SamplingProfiler, oracle: OracleReport,
                  symbolizer: Symbolizer,
                  granularity: Granularity) -> float:
    """Relative profile error of one *profiler* versus Oracle: the
    one-profiler case of :func:`profile_errors`."""
    return profile_errors({"": profiler}, oracle, symbolizer,
                          granularity)[""]


def per_sample_error(profiler: SamplingProfiler, oracle: OracleReport,
                     symbolizer: Symbolizer,
                     granularity: Granularity) -> float:
    """Per-sample error against the golden attribution of each sample's
    own interval (a stricter, diagnostic variant of the metric).

    *oracle* must come from an ``OracleProfiler`` that watched
    *profiler*'s schedule (``watch_schedules``); any other report, such
    as a harness result's, raises :class:`ValueError`.
    """
    key = schedule_key(profiler.schedule)
    intervals = oracle.intervals.get(key)
    if intervals is None:
        raise ValueError(
            "Oracle did not watch this profiler's sampling schedule "
            f"{key}; pass it via watch_schedules")
    total = 0.0
    correct = 0.0
    for sample in profiler.samples:
        golden = intervals.get(sample.cycle)
        if golden is None:
            continue  # interval truncated at the end of the run
        sample_total, sample_correct = sample_error(
            sample, golden, symbolizer, granularity)
        total += sample_total
        correct += sample_correct
    if total == 0.0:
        return 0.0
    return (total - correct) / total


def all_granularity_errors(profiler: SamplingProfiler, oracle: OracleReport,
                           symbolizer: Symbolizer
                           ) -> Dict[Granularity, float]:
    """Error at instruction, basic-block and function granularity."""
    return {granularity: profile_error(profiler, oracle, symbolizer,
                                       granularity)
            for granularity in Granularity}


def error_reduction(errors: Dict[str, float],
                    reference: str = "TIP") -> Dict[str, float]:
    """How many times larger each profiler's error is than *reference*'s
    (the paper's "TIP reduces error by N x" statements)."""
    base = errors.get(reference, 0.0)
    if base <= 0.0:
        return {name: float("inf") if err > 0 else 1.0
                for name, err in errors.items()}
    return {name: err / base for name, err in errors.items()}
