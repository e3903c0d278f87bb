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
"""

import io
import json
import os

from repro.analysis.profiles import profile_checksum
from repro.cpu.machine import Machine
from repro.cpu.tracefile import TraceWriterV3
from repro.harness.experiment import (POLICIES, ProfilerConfig,
                                     replay_experiment)
from repro.isa import assemble
from repro.kernel import Kernel

HERE = os.path.dirname(os.path.abspath(__file__))

#: Sampling parameters of the golden run (prime period, fixed seed).
PERIOD = 23
MODE = "random"
SEED = 2021
CHUNK_CYCLES = 256


def golden_configs():
    """One configuration per registered sampling policy."""
    return [ProfilerConfig(policy, PERIOD, MODE, SEED)
            for policy in POLICIES]


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


if __name__ == "__main__":
    main()
