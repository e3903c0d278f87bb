"""Regenerate the golden parallel-replay trace and expected profiles.

Run from the repository root::

    PYTHONPATH=src python tests/data/make_golden.py

Produces ``golden.tiptrace`` (a v3 commit trace of ``golden.s``) and
``golden_expected.json`` (per-profiler sample checksums and
instruction-level profiles from a block replay).  The differential
tests assert that block replay and the per-record reference replay of
the checked-in trace reproduce these values exactly, so regenerating
the files is only legitimate after an intentional change to the trace
format, the golden program, or a profiler's attribution policy.

``golden_v1.tiptrace`` and ``golden_v2.tiptrace`` hold the same records
in the legacy formats.  Nothing writes those formats any more, so they
are frozen inputs for the ``convert-trace`` tests and are never
regenerated.

It also writes ``suite_expected.json``: for every suite benchmark at
scale 0.05, simulated with ``sim="fast"`` under the default profilers
at period 53, the cycle count, the :class:`~repro.cpu.core.CoreStats`
without its driver fields, a sha256 of the Oracle's tables, every
profiler's sample checksum and every error at the three granularities
as ``repr``.  ``tests/test_simfast.py`` compares its own fast run of
each benchmark with the file, so a change that moves stepping and the
fast path alike still fails; regenerating it is only legitimate after
an intentional change to what the simulator or a profiler computes.
"""

import enum
import hashlib
import io
import json
import os
import sys

from repro.analysis.profiles import profile_checksum
from repro.analysis.symbols import Granularity
from repro.cpu.core import CoreStats
from repro.cpu.machine import Machine
from repro.cpu.tracefile import TraceWriterV3
from repro.harness.experiment import (POLICIES, ProfilerConfig,
                                     default_profilers, replay_experiment)
from repro.harness.runner import run_workload
from repro.isa import assemble
from repro.kernel import Kernel
from repro.workloads.suite import BENCHMARKS, build_suite

HERE = os.path.dirname(os.path.abspath(__file__))
SUITE_EXPECTED = os.path.join(HERE, "suite_expected.json")
#: Suite scale and sampling period of the pinned suite results.
SUITE_SCALE = 0.05
SUITE_PERIOD = 53

#: Sampling parameters of the golden run (prime period, fixed seed).
PERIOD = 23
MODE = "random"
SEED = 2021
CHUNK_CYCLES = 256


def golden_configs():
    """One configuration per registered sampling policy."""
    return [ProfilerConfig(policy, PERIOD, MODE, SEED)
            for policy in POLICIES]


def _canonical(value):
    """*value* with every dict as a sorted item tuple and every enum as
    its value, so its ``repr`` is independent of insertion order."""
    if isinstance(value, dict):
        return tuple(sorted((_canonical(k), _canonical(v))
                            for k, v in value.items()))
    if isinstance(value, (tuple, list)):
        return tuple(_canonical(item) for item in value)
    if isinstance(value, enum.Enum):
        return value.value
    return value


def suite_entry(result) -> dict:
    """The pinned facts of one benchmark's experiment *result*."""
    from conftest import oracle_tables  # tests/conftest.py
    stats = result.stats
    tables = repr(_canonical(oracle_tables(result.oracle)))
    return {
        "cycles": stats.cycles,
        "stats": {name: getattr(stats, name) for name in CoreStats.FIELDS
                  if name not in CoreStats.DRIVER_FIELDS},
        "oracle_sha256": hashlib.sha256(tables.encode()).hexdigest(),
        "profile_checksums": {label: profile_checksum(profiler.samples)
                              for label, profiler
                              in result.profilers.items()},
        "errors": {g.value: {label: repr(error) for label, error
                             in result.errors(g).items()}
                   for g in Granularity},
    }


def write_suite_expected() -> None:
    profilers = default_profilers(SUITE_PERIOD)
    expected = {
        workload.name: suite_entry(run_workload(workload, profilers,
                                                sim="fast"))
        for workload in build_suite(BENCHMARKS, scale=SUITE_SCALE)}
    with open(SUITE_EXPECTED, "w") as out:
        json.dump(expected, out, indent=2, sort_keys=True)
        out.write("\n")
    print(f"suite results: {len(expected)} benchmarks at scale "
          f"{SUITE_SCALE}")


def main():
    with open(os.path.join(HERE, "golden.s")) as handle:
        source = handle.read()
    program = assemble(source, name="golden.s")
    machine = Machine(program)
    buffer = io.BytesIO()
    machine.attach(TraceWriterV3(buffer, machine.config.rob_banks,
                                 chunk_cycles=CHUNK_CYCLES))
    stats = machine.run()
    trace = buffer.getvalue()
    with open(os.path.join(HERE, "golden.tiptrace"), "wb") as out:
        out.write(trace)

    image = Kernel().boot(program)
    result = replay_experiment(trace, image, golden_configs())
    cycles = result.oracle.total_cycles
    expected = {
        "period": PERIOD,
        "mode": MODE,
        "seed": SEED,
        "chunk_cycles": CHUNK_CYCLES,
        "cycles": cycles,
        "committed": stats.committed,
        "profilers": {},
        "oracle_profile": {hex(addr): weight for addr, weight
                           in sorted(result.oracle.profile.items())},
    }
    for name, profiler in result.profilers.items():
        expected["profilers"][name] = {
            "checksum": profile_checksum(profiler.samples),
            "samples": len(profiler.samples),
            "profile": {hex(addr): weight for addr, weight
                        in sorted(profiler.profile().items())},
        }
    with open(os.path.join(HERE, "golden_expected.json"), "w") as out:
        json.dump(expected, out, indent=2, sort_keys=True)
        out.write("\n")
    print(f"golden trace: {len(trace)} bytes, {cycles} cycles, "
          f"{stats.committed} instructions")
    write_suite_expected()


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(HERE))  # for tests/conftest.py
    main()
