"""One benchmark round, run as a fresh process by ``python -m bench``.

``python -m bench.round '<json args>'`` imports ``repro``, builds the
workload (timed as set-up), runs one untimed cold warm-up, then cycles
of timed operations until ``"until"`` (a ``time.monotonic()`` value):
one cold, one record into a fresh cache and ``warm_reps`` warm against
that cache.  It starts no operation that the last one of its kind says
would end after ``"until"``, but always runs one cycle.  Before set-up
and after it and every operation it times :func:`calibration_s`, and
gives each timed span the mean of the two probes around it as
``"host_s"``.  With ``"trace": true`` it runs the traced round of
:mod:`bench.trace` instead.  The last line of standard output is the
round's JSON result.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import shutil
import statistics
import struct
import sys
import tempfile
import time
import traceback
from typing import Dict

from .workloads import SPECS, Spec, cache_check, operation, outputs, \
    peak_rss_mb, simulated_cycles, suite_digest, tip_error_pct

#: What :func:`calibration_s` takes on an uncontended core of the
#: 2-core x86-64 VM (CPython 3.11) the committed baselines come from:
#: about its fastest few percent of 3,000 calls there.  Two copies at
#: once each take about 1.25 times as long even there.
REFERENCE_S = 0.008


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value


def _loop_s() -> float:
    start = time.perf_counter()
    cells = [_Cell(i) for i in range(256)]
    table: dict = {}
    for i in range(40_000):
        cell = cells[i & 255]
        cell.value = (cell.value * 31 + i) & 0xFFFF
        table[cell.value & 1023] = table.get(cell.value & 1023, 0) + 1
    return time.perf_counter() - start


def calibration_s(width: int = 1) -> float:
    """Seconds a fixed pure-Python loop takes now, on *width* cores.

    On a shared host a tenant on the same physical core slows this
    process by up to two times, for periods from a second to over half
    a minute; the loop slows with it, while no change to ``repro`` can
    move it.  It mixes what the simulator's own hot loops do: slot
    attribute access, small-int arithmetic, list indexing and dict
    updates.  An operation on ``width`` pool workers runs on that many
    cores, each with its own neighbours, so the loop runs in as many
    processes at once and their mean counts.
    """
    children = []
    try:
        for _ in range(width - 1):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    os.write(write, struct.pack("d", _loop_s()))
                finally:
                    os._exit(0)
            os.close(write)
            children.append((pid, read))
        times = [_loop_s()]
        for _, read in children:
            times.append(struct.unpack("d", os.read(read, 8))[0])
    finally:
        for pid, read in children:
            os.close(read)
            os.waitpid(pid, 0)
    return statistics.mean(times)


def timed_op(spec: Spec, workloads: list, smoke: bool, kind: str,
             cache) -> dict:
    """Run and check one operation; never raises.

    Garbage left by earlier work is collected first, untimed, so that
    no operation pays for its predecessor's.
    """
    gc.collect()
    start = time.perf_counter()
    try:
        suite, errors = operation(spec, workloads, smoke, cache)
    except Exception:
        return {"kind": kind, "error": traceback.format_exc(limit=4)}
    seconds = time.perf_counter() - start
    op = {"kind": kind, "seconds": seconds, "error": None}
    if suite.failures:
        op["error"] = "; ".join(str(f) for f in suite.failures.values())
        return op
    op["error"] = cache_check(kind, suite.results)
    op.update(hits=sum(result.cached for result in suite.results.values()),
              digest=suite_digest(suite.results),
              outputs=outputs(suite.results, errors),
              cycles=simulated_cycles(suite.results),
              tip_error_pct=tip_error_pct(errors))
    return op


def run_round(spec: Spec, seed: int, smoke: bool, scratch: str,
              start: float, until: float, probe: float) -> dict:
    """*probe* is the :func:`calibration_s` taken just before *start*."""
    workloads = spec.build(seed, smoke)
    setup_s = time.perf_counter() - start
    setup_host_s = (probe + calibration_s()) / 2
    # The first operation of a process pays for lazy imports and cold
    # caches; it is checked like the others but not timed.
    ops = [] if smoke else [timed_op(spec, workloads, smoke, "warm-up",
                                     None)]
    last = calibration_s(spec.jobs)
    # Kinds interleave, so that a burst of interference lands on every
    # kind alike.
    cycle = ["cold", "record"] + ["warm"] * (1 if smoke else spec.warm_reps)
    took: Dict[str, float] = {}
    for index in itertools.count():
        kind = cycle[index % len(cycle)]
        began = time.monotonic()
        if kind == "record":
            cache = tempfile.mkdtemp(prefix="cache-", dir=scratch)
        op = timed_op(spec, workloads, smoke, kind,
                      None if kind == "cold" else cache)
        probe = calibration_s(spec.jobs)
        op["host_s"] = (last + probe) / 2
        last = probe
        ops.append(op)
        now = time.monotonic()
        took[kind] = now - began
        upcoming = cycle[(index + 1) % len(cycle)]
        if index + 1 >= len(cycle) and (smoke or now + took[upcoming]
                                        > until):
            break
    return {"setup_s": setup_s, "setup_host_s": setup_host_s, "ops": ops,
            "peak_rss_mb": peak_rss_mb()}


def main(argv) -> int:
    probe = calibration_s()
    start = time.perf_counter()
    args = json.loads(argv[1])
    spec = SPECS[args["workload"]]
    scratch = tempfile.mkdtemp(prefix="round-", dir=args["scratch"])
    try:
        if args["trace"]:
            from .trace import run_traced_round
            result = run_traced_round(spec, args["seed"], args["smoke"],
                                      scratch, start, args["span_file"])
        else:
            result = run_round(spec, args["seed"], args["smoke"], scratch,
                               start, args["until"], probe)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
