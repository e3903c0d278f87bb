"""``repro bench --trace``: block replay versus per-record replay.

Times each stock profiler (plus the Oracle, plus one run with all of
them attached at once) replaying the same recorded trace two ways and
writes the comparison to ``BENCH_hotpath.json``:

* **cycle** -- the per-record reference replay
  (:func:`~repro.cpu.tracefile.replay_trace`), one ``CycleRecord`` and
  one ``on_cycle`` call per cycle per observer;
* **v3 (zero-copy)** -- block replay (:func:`~repro.fastpath.engine.
  replay_blocks`), where chunk columns are ``memoryview`` casts over
  one mmap of the file and no per-record decode happens at all.

The input trace may be any format version; it is normalized to one v3
file before timing, so both paths replay the exact same records.
Every profiler's sample-stream checksum and final profile are compared
across the two paths, so the benchmark doubles as a differential test:
block replay only counts as a win if it is *bit-identical*, and CI
fails the run when any checksum diverges.

Timings are best-of-N wall clock on the current machine (N=2 with
``quick=True`` for CI smoke runs, N=5 otherwise); the JSON records N
and the host environment under ``meta`` so archived results stay
interpretable.  ``v3_vs_cycle`` is the headline ratio: the geometric
mean, over the sampling-policy rows, of per-record time over block
time.
"""

from __future__ import annotations

import json
import math
import os
import platform
import tempfile
import time
from typing import Dict, List, Optional, Sequence

from ..analysis.profiles import profile_checksum
from ..core.oracle import OracleProfiler
from ..cpu.tracefile import (MAGIC_V3, TraceReaderV3, convert_trace,
                             replay_trace)
from ..isa.program import Program
from .engine import replay_blocks

#: The seven sampling policies timed by the hot-path benchmark.
HOTPATH_POLICIES = ("Software", "Dispatch", "LCI", "NCI", "NCI+ILP",
                    "TIP-ILP", "TIP")
#: Synthetic row keys for the non-policy measurements.
ORACLE_ROW = "Oracle"
ALL_ROW = "all"

DEFAULT_REPEATS = 5
QUICK_REPEATS = 2


def _best_of(fn, repeats: int) -> float:
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best


def _bench_meta(repeats: int) -> Dict:
    """Environment stamp stored alongside every timing (``meta``)."""
    return {
        "trials": repeats,
        "timing": "best-of-N wall clock",
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "host": platform.node(),
    }


def run_hotpath_bench(trace, image: Program,
                      output: Optional[str] = "BENCH_hotpath.json",
                      period: int = 23,
                      mode: str = "random",
                      seed: int = 2021,
                      policies: Sequence[str] = HOTPATH_POLICIES,
                      quick: bool = False,
                      repeats: Optional[int] = None,
                      verbose: bool = False) -> Dict:
    """Benchmark block against per-record replay on *trace* (bytes or
    path).

    *image* is the booted :class:`~repro.isa.program.Program` the trace
    was recorded from (needed by TIP and the Oracle for stall
    classification).  Returns the result dict and, unless *output* is
    ``None``, writes it there as JSON.
    """
    from ..harness.experiment import ProfilerConfig

    source_path = trace if isinstance(trace, str) else None
    if source_path is not None:
        with open(source_path, "rb") as handle:
            raw = handle.read()
    else:
        raw = bytes(trace)
    if repeats is None:
        repeats = QUICK_REPEATS if quick else DEFAULT_REPEATS

    # Normalize the input to one v3 *file*, which both paths replay.
    tmp_path = None
    if source_path is not None and raw[:8] == MAGIC_V3:
        v3_path = source_path
    else:
        fd, tmp_path = tempfile.mkstemp(suffix=".tiptrace")
        os.close(fd)
        convert_trace(raw, tmp_path)
        v3_path = tmp_path

    configs = {policy: ProfilerConfig(policy, period, mode, seed)
               for policy in policies}

    def build(policy: str):
        return configs[policy].build(image)

    def build_all() -> List:
        observers = [build(policy) for policy in policies]
        observers.append(OracleProfiler(image))
        return observers

    result: Dict = {
        "period": period,
        "mode": mode,
        "seed": seed,
        "repeats": repeats,
        "quick": quick,
        "trace_bytes": len(raw),
        "v3_bytes": os.path.getsize(v3_path),
        "meta": _bench_meta(repeats),
        "rows": {},
    }

    v3_reader = TraceReaderV3(v3_path)
    try:
        checksums_equal = True
        rows = list(policies) + [ORACLE_ROW, ALL_ROW]
        for row in rows:
            if verbose:
                print(f"[bench] hotpath {row} ...", flush=True)
            if row == ALL_ROW:
                make = build_all
            elif row == ORACLE_ROW:
                def make():
                    return [OracleProfiler(image)]
            else:
                def make(policy=row):
                    return [build(policy)]

            # Correctness first: one untimed run per path, checksums
            # compared before any timing is trusted.
            cycle_obs = make()
            cycles = replay_trace(v3_path, *cycle_obs)
            block_obs = make()
            replay_blocks(v3_reader, *block_obs)
            equal = True
            for a, b in zip(cycle_obs, block_obs):
                if isinstance(a, OracleProfiler):
                    equal &= a.report.profile == b.report.profile
                else:
                    equal &= (profile_checksum(a.samples)
                              == profile_checksum(b.samples))
                    equal &= a.profile() == b.profile()
            checksums_equal &= equal

            cycle_s = _best_of(
                lambda: replay_trace(v3_path, *make()), repeats)
            v3_s = _best_of(
                lambda: replay_blocks(v3_reader, *make()), repeats)
            result["rows"][row] = {
                "cycle_s": cycle_s,
                "v3_s": v3_s,
                "v3_vs_cycle": cycle_s / v3_s,
                "checksums_equal": equal,
            }
    finally:
        v3_reader.close()
        if tmp_path is not None:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
    result["cycles"] = cycles
    result["checksums_equal"] = checksums_equal
    # Headline: geometric mean of the per-policy block-vs-per-record
    # speedups (the Oracle and all-at-once rows are reported but kept
    # out of the headline -- they measure observer cost, not replay
    # path cost).
    policy_rows = [result["rows"][p] for p in policies
                   if p in result["rows"]]
    if policy_rows:
        result["v3_vs_cycle"] = math.exp(
            sum(math.log(r["v3_vs_cycle"]) for r in policy_rows)
            / len(policy_rows))

    if output is not None:
        with open(output, "w") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
            handle.write("\n")
        if verbose:
            print(f"[bench] wrote {output}", flush=True)
    return result


def render_hotpath_bench(result: Dict) -> str:
    """Human-readable one-screen summary of a hot-path bench result."""
    lines: List[str] = []
    lines.append(f"per-record vs block replay, {result['cycles']} cycles, "
                 f"best of {result['repeats']}")
    for row, entry in result["rows"].items():
        flag = "" if entry["checksums_equal"] else "  MISMATCH"
        lines.append(
            f"{row:>10}: cycle {entry['cycle_s'] * 1e3:8.2f}ms  "
            f"v3 {entry['v3_s'] * 1e3:8.2f}ms  "
            f"v3/cycle {entry['v3_vs_cycle']:.2f}x{flag}")
    if "v3_vs_cycle" in result:
        lines.append("v3 vs cycle (policy geomean): "
                     f"{result['v3_vs_cycle']:.2f}x")
    lines.append("replay checksums: "
                 + ("OK (block and per-record identical)"
                    if result["checksums_equal"] else "MISMATCH"))
    return "\n".join(lines)
