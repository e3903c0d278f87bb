"""``repro bench --sim``: simulation fast-path and cache timing.

Runs a stall-heavy subset of the suite through all three simulation
paths -- single-stepping, event-driven fast-forward and a warm
content-addressed cache hit -- with the full default profiler line-up
attached, and writes the comparison to ``BENCH_sim.json``.  Every
path's Oracle report, per-profiler sample checksums and core
statistics are compared first, so the benchmark doubles as a
differential test: the fast path and the cache are only wins if they
are *bit-identical* and faster, and CI fails the run when any checksum
diverges.

Timings are best-of-N wall clock on the current machine (N=2 with
``quick=True`` for CI smoke runs, N=3 otherwise; each measurement is a
complete simulation, so N stays small).
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
import time
from typing import Dict, List, Optional, Sequence

from ..analysis.profiles import profile_checksum
from ..harness.experiment import default_profilers
from ..harness.runner import DEFAULT_PERIOD, run_workload
from ..workloads.suite import build_suite
from .cache import SimCache

#: Stall-heavy suite members where the fast-forward pays off most,
#: plus compute-bound members (exchange2, and lbm's steady kernel)
#: where the steady-state loop memoizer carries the speedup instead.
SIM_BENCHMARKS = ("mcf", "canneal", "omnetpp", "lbm", "exchange2")

DEFAULT_REPEATS = 3
QUICK_REPEATS = 2
DEFAULT_SCALE = 0.3
QUICK_SCALE = 0.15


def _best_of(fn, repeats: int) -> float:
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best


def _result_checksum(result) -> str:
    """Hex digest covering everything a run produced.

    Oracle profile/categorized/watched maps, every profiler's raw
    sample stream and the core statistics -- all via ``repr``, which
    round-trips floats, so two runs hash equal iff bit-identical.
    """
    digest = hashlib.sha256()
    report = result.oracle
    digest.update(repr(sorted(report.profile.items())).encode())
    digest.update(repr(sorted(
        ((addr, cat.value), weight)
        for (addr, cat), weight in report.categorized.items())).encode())
    digest.update(repr(sorted(
        (kind.value, weight)
        for kind, weight in report.flush_breakdown.items())).encode())
    digest.update(repr(sorted(
        (cycle, (tuple(attr), cat.value))
        for cycle, (attr, cat) in report.watched.items())).encode())
    digest.update(repr(report.total_cycles).encode())
    for name in sorted(result.profilers):
        profiler = result.profilers[name]
        digest.update(name.encode())
        digest.update(profile_checksum(profiler.samples).encode())
    if result.stats is not None:
        # Driver fields count how the run was *driven*, not what it
        # produced -- they legitimately differ between step and fast.
        from ..cpu.core import CoreStats
        digest.update(repr(sorted(
            (k, v) for k, v in result.stats.to_dict().items()
            if k not in CoreStats.DRIVER_FIELDS)).encode())
    return digest.hexdigest()


def run_sim_bench(benchmarks: Sequence[str] = SIM_BENCHMARKS,
                  output: Optional[str] = "BENCH_sim.json",
                  period: int = DEFAULT_PERIOD,
                  scale: Optional[float] = None,
                  quick: bool = False,
                  repeats: Optional[int] = None,
                  max_cycles: int = 10_000_000,
                  verbose: bool = False) -> Dict:
    """Benchmark step vs fast vs cache-hit simulation on *benchmarks*.

    Returns the result dict and, unless *output* is ``None``, writes it
    there as JSON.  All timed runs attach the full default profiler
    line-up directly, as ``repro profile``/``repro suite`` do, so the
    measured ratios are what their users actually see.
    """
    if repeats is None:
        repeats = QUICK_REPEATS if quick else DEFAULT_REPEATS
    if scale is None:
        scale = QUICK_SCALE if quick else DEFAULT_SCALE

    from ..fastpath.bench import _bench_meta
    result: Dict = {
        "period": period,
        "scale": scale,
        "repeats": repeats,
        "quick": quick,
        "meta": _bench_meta(repeats),
        "rows": {},
    }
    checksums_equal = True

    cache_root = tempfile.mkdtemp(prefix="repro-simbench-")
    try:
        for workload in build_suite(list(benchmarks), scale=scale):
            if verbose:
                print(f"[bench] sim {workload.name} ...", flush=True)
            profilers = default_profilers(period)
            cache = SimCache(cache_root)

            def run(sim: str, use_cache: bool = False,
                    workload=workload, profilers=profilers, cache=cache):
                return run_workload(
                    workload, profilers, max_cycles,
                    sim=sim, cache=cache if use_cache else None)

            # Correctness first: one untimed run per path, checksums
            # compared before any timing is trusted.  The cold cached
            # run fills the entry the warm run then hits.
            r_step = run("step")
            r_fast = run("fast")
            r_cold = run("fast", use_cache=True)
            r_warm = run("fast", use_cache=True)
            sums = [_result_checksum(r) for r in
                    (r_step, r_fast, r_cold, r_warm)]
            equal = (len(set(sums)) == 1 and not r_cold.cached
                     and r_warm.cached)
            checksums_equal &= equal

            step_s = _best_of(lambda: run("step"), repeats)
            fast_s = _best_of(lambda: run("fast"), repeats)
            warm_s = _best_of(lambda: run("fast", use_cache=True),
                              repeats)

            stats = r_fast.stats
            result["rows"][workload.name] = {
                "cycles": stats.cycles,
                "fast_forwarded": stats.fast_forwarded,
                "steady_state_iterations": stats.steady_state_iterations,
                "steady_state_cycles": stats.steady_state_cycles,
                "step_s": step_s,
                "fast_s": fast_s,
                "warm_s": warm_s,
                "fast_speedup": step_s / fast_s,
                "warm_speedup": step_s / warm_s,
                "checksums_equal": equal,
            }
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)
    result["checksums_equal"] = checksums_equal

    if output is not None:
        with open(output, "w") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
            handle.write("\n")
        if verbose:
            print(f"[bench] wrote {output}", flush=True)
    return result


def render_sim_bench(result: Dict) -> str:
    """Human-readable one-screen summary of a sim bench result."""
    lines: List[str] = []
    lines.append(f"step vs fast vs cache-hit simulation, "
                 f"scale {result['scale']}, best of {result['repeats']}")
    for name, entry in result["rows"].items():
        flag = "" if entry["checksums_equal"] else "  MISMATCH"
        memo_cycles = entry.get("steady_state_cycles", 0)
        # fast_forwarded counts both skip mechanisms; split them out.
        stall_cycles = entry["fast_forwarded"] - memo_cycles
        ff_pct = (100.0 * stall_cycles / entry["cycles"]
                  if entry["cycles"] else 0.0)
        ss_pct = (100.0 * memo_cycles / entry["cycles"]
                  if entry["cycles"] else 0.0)
        lines.append(
            f"{name:>13}: step {entry['step_s'] * 1e3:8.1f}ms  "
            f"fast {entry['fast_s'] * 1e3:8.1f}ms "
            f"({ff_pct:4.1f}% ff, {ss_pct:4.1f}% memo)  "
            f"warm {entry['warm_s'] * 1e3:8.1f}ms  "
            f"{entry['fast_speedup']:.2f}x/{entry['warm_speedup']:.2f}x"
            f"{flag}")
    lines.append("path checksums: "
                 + ("OK (fast and cache identical to step)"
                    if result["checksums_equal"] else "MISMATCH"))
    return "\n".join(lines)
