#!/usr/bin/env python
"""The Section 6 case study, end to end.

Profiles the Imagick stand-in with TIP and NCI, shows why the
function-level profile is inconclusive, how TIP pinpoints the
``frflags``/``fsflags`` CSR instructions inside ``ceil``/``floor`` while
NCI blames innocent instructions, then applies the paper's fix (replace
the CSR pair with ``nop``) and measures the speedup.

Run:  python examples/imagick_case_study.py
"""

from repro import Granularity, default_profilers
from repro.analysis import render_profile_table, render_stacks_table
from repro.harness import run_workload
from repro.workloads import build_imagick


def _instruction_profile_within(result, function_name, profiler):
    program = result.program
    func = next(f for f in program.functions if f.name == function_name)
    profile = result.profile(profiler, Granularity.INSTRUCTION)
    within = {addr: t for addr, t in profile.items()
              if isinstance(addr, int) and func.contains(addr)}
    total = sum(within.values()) or 1.0
    return {addr: t / total for addr, t in within.items()}


def main() -> None:
    print("=== step 1: profile the original Imagick ===")
    orig = run_workload(build_imagick(optimized=False),
                        default_profilers(period=19))

    profiles = {"Oracle": orig.oracle_profile(Granularity.FUNCTION),
                "TIP": orig.profile("TIP", Granularity.FUNCTION),
                "NCI": orig.profile("NCI", Granularity.FUNCTION)}
    print(render_profile_table(profiles, title="function-level profile"))
    print("\nThe function profile shows ceil/floor are hot but not WHY --")
    print("'developers use functions to organize functionality, not")
    print("performance'.\n")

    print("=== step 2: drill into ceil at the instruction level ===")
    for profiler in ("TIP", "NCI"):
        ceil_profile = _instruction_profile_within(orig, "ceil", profiler)
        print(render_profile_table({profiler: ceil_profile},
                                   program=orig.program,
                                   title=f"{profiler}: time within ceil"))
        print()
    print("TIP puts the time on frflags/fsflags (which flush the BOOM")
    print("pipeline); NCI attributes it to whatever commits next.\n")

    print("=== step 3: apply the fix (CSR pair -> nop) and re-measure ===")
    opt = run_workload(build_imagick(optimized=True),
                       default_profilers(period=19))
    speedup = orig.stats.cycles / opt.stats.cycles
    print(render_stacks_table({
        "original": orig.cycle_stack(),
        "optimized": opt.cycle_stack(),
    }, title="cycle stacks before/after (Figure 13)"))
    print(f"\nspeedup: {speedup:.2f}x (paper: 1.93x)")
    print(f"IPC: {orig.stats.ipc:.2f} -> {opt.stats.ipc:.2f} "
          "(paper: 1.2 -> 2.3)")


if __name__ == "__main__":
    main()
