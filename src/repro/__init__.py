"""repro: a reproduction of "TIP: Time-Proportional Instruction Profiling"
(Gottschall, Eeckhout, Jahre -- MICRO 2021).

The package provides:

* ``repro.isa`` -- a compact RISC-V-flavoured ISA with an assembler;
* ``repro.cpu`` -- a cycle-level 4-wide out-of-order core (BOOM-style)
  that emits a per-cycle commit-stage trace;
* ``repro.mem`` -- caches, TLBs, page tables, DRAM;
* ``repro.kernel`` -- a miniature OS (page-fault handling);
* ``repro.core`` -- the paper's contribution: the Oracle golden-reference
  profiler, TIP, and the Software/Dispatch/LCI/NCI baselines;
* ``repro.analysis`` -- symbolization, the profile error metric, cycle
  stacks, and report rendering;
* ``repro.workloads`` -- 27 synthetic SPEC/PARSEC stand-ins plus the
  Imagick case study;
* ``repro.harness`` -- single-simulation multi-profiler experiments;
* ``repro.lint`` -- the static linter, dataflow engine, abstract
  interpreter and commit-trace sanitizer;
* ``repro.opt`` -- the profile-guided optimizer: dataflow-proven
  rewrites with certificates, differential verification and measured
  speedups (``repro optimize``).

Quickstart::

    from repro import run_experiment, default_profilers
    from repro.workloads import build
    wl = build("lbm")
    result = run_experiment(wl.program, default_profilers(97),
                            premapped_data=wl.premapped)
    print(result.errors())
"""

from .analysis import (CycleStack, Granularity, Symbolizer, cycle_stack,
                       profile_error, profile_errors)
from .core import (Category, OracleProfiler, SampleSchedule, TipProfiler)
from .cpu import CoreConfig, Machine
from .harness import (ALL_POLICIES, ExperimentResult, ProfilerConfig,
                      SuiteResult, default_profilers, run_experiment,
                      run_suite, run_workload)
from .isa import Program, assemble

__version__ = "1.1.0"

__all__ = [
    "CycleStack", "Granularity", "Symbolizer", "cycle_stack",
    "profile_error", "profile_errors", "Category", "OracleProfiler",
    "SampleSchedule", "TipProfiler", "CoreConfig", "Machine", "ALL_POLICIES",
    "ExperimentResult", "ProfilerConfig", "SuiteResult",
    "default_profilers", "run_experiment", "run_suite", "run_workload",
    "Program", "assemble", "__version__",
]
