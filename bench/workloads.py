"""Workload definitions, the timed operation and its output checks.

Everything that touches ``repro`` imports it inside a function: a round
process times ``import repro`` as part of its set-up.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Sampling period of every profiler: the CLI default.
PERIOD = 13

#: The operation's cycle budget: ``run_suite``'s default.
MAX_CYCLES = 10_000_000


@dataclass(frozen=True)
class Spec:
    """One benchmark workload and its repetition counts."""

    name: str
    #: Suite benchmark names; empty for the Imagick case study.
    benchmarks: Tuple[str, ...]
    scale: float
    smoke_scale: float
    #: ``run_suite(jobs=...)``: 1 is the CLI default, 2 the pool path.
    jobs: int
    #: Warm operations per cycle of one cold, one record and the warm
    #: ones: warm operations are the shortest, so they get the most.
    warm_reps: int

    def build(self, seed: int, smoke: bool = False) -> list:
        """Build this workload's programs (``repro.workloads``)."""
        if not self.benchmarks:
            from repro.workloads import build_imagick
            pixels, morph_iters = (40, 80) if smoke else (125, 275)
            return [build_imagick(pixels=pixels, morph_iters=morph_iters,
                                  seed=seed)]
        from repro.workloads.suite import build
        scale = self.run_scale(smoke)
        return [build(name, scale) for name in self.benchmarks]

    def run_scale(self, smoke: bool) -> float:
        return self.smoke_scale if smoke else self.scale


#: The cheapest-to-build Compute-class (namd) and Stall-class
#: (fotonik3d) suite benchmarks, one per pool worker.  Worker rebuilds
#: dominate the pool path, so cheap builds are what lets a round fit
#: enough cycles.
SWEEP = ("namd", "fotonik3d")

# Sizes are set so that a round of 10 s on a 2-core machine fits three
# (sweep) to four cycles: many short operations rather than a few long
# ones, because interference there comes in bursts of seconds and a
# median over more samples rides them out.  Where a warm operation
# costs about as much as a cold one, a cycle has one of each.
SPECS: Dict[str, Spec] = {spec.name: spec for spec in (
    Spec("mcf", ("mcf",), 0.25, 0.05, jobs=1, warm_reps=1),
    Spec("exchange2", ("exchange2",), 0.25, 0.05, jobs=1, warm_reps=3),
    Spec("imagick-orig", (), 1.0, 1.0, jobs=1, warm_reps=3),
    Spec("sweep", SWEEP, 0.02, 0.02, jobs=2, warm_reps=1),
)}


def operation(spec: Spec, workloads: list, smoke: bool,
              cache: Optional[str]):
    """What ``repro suite`` does for *workloads*, minus build and print.

    Returns the :class:`~repro.harness.runner.SuiteResult` and its
    error tables, granularity value -> benchmark -> policy -> error.
    """
    from repro.analysis.symbols import Granularity
    from repro.harness.experiment import default_profilers
    from repro.harness.runner import run_suite
    suite = run_suite(workloads, profilers=default_profilers(PERIOD),
                      scale=spec.run_scale(smoke), max_cycles=MAX_CYCLES,
                      sim="fast", jobs=spec.jobs, cache=cache)
    errors = {g.value: suite.errors(g) for g in Granularity}
    return suite, errors


def result_digest(result) -> str:
    """Hex digest of everything one experiment produced.

    The Oracle report maps, every profiler's sample checksum and the
    core statistics minus the fields that describe how the run was
    driven.  ``repr`` round-trips floats, so two results hash equal iff
    they are bit-identical.
    """
    from repro.analysis.profiles import profile_checksum
    from repro.cpu.core import CoreStats
    report = result.oracle
    digest = hashlib.sha256()
    for table in (report.profile, report.categorized,
                  report.category_totals, report.flush_breakdown,
                  report.watched, report.intervals):
        digest.update(repr(_canonical(table)).encode())
    digest.update(repr(report.total_cycles).encode())
    for name in sorted(result.profilers):
        digest.update(name.encode())
        digest.update(profile_checksum(
            result.profilers[name].samples).encode())
    stats = result.stats.to_dict()
    digest.update(repr(sorted(
        (k, v) for k, v in stats.items()
        if k not in CoreStats.DRIVER_FIELDS)).encode())
    return digest.hexdigest()


def _canonical(value):
    """*value* with every dict sorted, so the order in which a path
    fills a map cannot leak into the digest."""
    if not isinstance(value, dict):
        return value
    items = [(key, _canonical(item)) for key, item in value.items()]
    try:
        return sorted(items)  # keys are unique: values never compared
    except TypeError:  # enum keys do not order
        return sorted(items, key=lambda kv: repr(kv[0]))


def suite_digest(results: dict) -> str:
    digest = hashlib.sha256()
    for name, result in results.items():
        digest.update(name.encode())
        digest.update(result_digest(result).encode())
    return digest.hexdigest()


def outputs(results: dict, errors: dict) -> Dict[str, dict]:
    """The deterministic outputs checked against ``expected.json``."""
    instruction = errors["instruction"]
    return {name: {
        "sim_cycles": result.stats.cycles,
        "committed": result.stats.committed,
        "samples": {label: len(profiler.samples)
                    for label, profiler in result.profilers.items()},
        "errors": {label: round(error, 9)
                   for label, error in instruction[name].items()},
    } for name, result in results.items()}


def tip_error_pct(errors: dict) -> float:
    """TIP's instruction-level error, mean over benchmarks, in %."""
    table = errors["instruction"]
    return 100.0 * sum(row["TIP"] for row in table.values()) / len(table)


def cache_check(kind: str, results: dict) -> Optional[str]:
    """Why *results* break the cache rule of *kind*, or ``None``."""
    hits = [name for name, result in results.items() if result.cached]
    if kind == "warm" and len(hits) != len(results):
        missed = sorted(set(results) - set(hits))
        return f"warm operation missed the cache on {missed}"
    if kind != "warm" and hits:
        return f"{kind} operation hit the cache on {hits}"
    return None


def peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for child."""
    import resource
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def simulated_cycles(results: dict) -> int:
    return sum(result.stats.cycles for result in results.values())
