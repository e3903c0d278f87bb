"""Job specifications, content keys and the worker entry point.

A *job* is one profiling run: a program (assembly source, named suite
benchmark, or the imagick case study -- a :class:`ProgramSpec`), the
profiler line-up, and the simulation budget.  Jobs are
content-addressed: the **simulation key** is the existing
:func:`~repro.simfast.cache.simulation_key` (the ``SimCache`` key of
the run's trace), and the **job key** extends it with the replay-side
parameters that shape the report.  Two submissions with equal job keys
are the same work; the server coalesces them onto one in-flight
future, and distinct jobs sharing a simulation key still share the
simulated trace through the cache.

:func:`execute_job` is the picklable worker entry: it resolves the
program, runs the standard :func:`~repro.harness.run_experiment` path
(the exact code a direct ``run_workload`` call uses, so reports are
bit-identical), and returns a wire-ready payload.
:func:`profile_report` is the canonical JSON report both the server and
direct runs share.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Optional, Tuple

from ..analysis.symbols import Granularity
from ..harness.experiment import (ExperimentResult, ProfilerConfig,
                                  default_profilers, run_experiment)
from ..harness.runner import DEFAULT_PERIOD
from ..isa.program import Program
from ..parallel.suite import result_payload

#: Default per-job wall-clock budget (seconds) on the server.
DEFAULT_JOB_TIMEOUT = 600.0

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
ERROR = "error"
CANCELLED = "cancelled"
TERMINAL_STATES = (DONE, ERROR, CANCELLED)


@dataclass(frozen=True)
class ProgramSpec:
    """The program a job runs, named by a few fields.

    A spec is small where a linked image can be megabytes, and the
    program it names is deterministic to rebuild
    (:func:`resolve_program`).
    """

    kind: str  # "asm" | "workload" | "imagick"
    source: str = ""  # assembly text, or the benchmark name
    name: str = "program"
    scale: float = 1.0
    optimized: bool = False
    premap_all: bool = False


@dataclass(frozen=True)
class JobSpec:
    """Everything that determines one profiling run and its report."""

    program: ProgramSpec
    profilers: Tuple[ProfilerConfig, ...] = field(default_factory=tuple)
    max_cycles: int = 10_000_000
    sim: str = "fast"
    sanitize: bool = False
    #: Per-job wall-clock budget; ``None`` uses the server default.
    #: Not part of the job key -- coalesced duplicates share the first
    #: submission's budget.
    timeout: Optional[float] = None

    # -- construction ---------------------------------------------------------

    @classmethod
    def for_source(cls, source: str, name: str = "program.s",
                   premap_all: bool = False, period: int = DEFAULT_PERIOD,
                   **kwargs) -> "JobSpec":
        """A job over literal assembly source."""
        return cls(program=ProgramSpec(kind="asm", source=source,
                                       name=name, premap_all=premap_all),
                   profilers=tuple(default_profilers(period, **kwargs)))

    @classmethod
    def for_benchmark(cls, name: str, scale: float = 0.5,
                      period: int = DEFAULT_PERIOD,
                      **kwargs) -> "JobSpec":
        """A job over a named suite benchmark."""
        return cls(program=ProgramSpec(kind="workload", source=name,
                                       name=name, scale=scale),
                   profilers=tuple(default_profilers(period, **kwargs)))

    # -- wire format ----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "program": asdict(self.program),
            "profilers": [asdict(config) for config in self.profilers],
            "max_cycles": self.max_cycles,
            "sim": self.sim,
            "sanitize": self.sanitize,
            "timeout": self.timeout,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "JobSpec":
        """Parse and validate a wire spec; raises ValueError."""
        if not isinstance(payload, dict):
            raise ValueError("job spec must be a JSON object")
        program = payload.get("program")
        if not isinstance(program, dict):
            raise ValueError("job spec needs a 'program' object")
        program_spec = _dataclass_from(ProgramSpec, program, "program")
        if program_spec.kind not in ("asm", "workload", "imagick"):
            raise ValueError(
                f"unknown program kind {program_spec.kind!r}")
        raw_profilers = payload.get("profilers") or []
        if not isinstance(raw_profilers, list) or not raw_profilers:
            raise ValueError("job spec needs a non-empty "
                             "'profilers' list")
        profilers = tuple(
            _dataclass_from(ProfilerConfig, config, f"profilers[{i}]")
            for i, config in enumerate(raw_profilers))
        seen = set()
        for config in profilers:
            if config.name in seen:
                raise ValueError(
                    f"duplicate profiler label {config.name!r}")
            seen.add(config.name)
        spec = cls(program=program_spec, profilers=profilers,
                   max_cycles=int(payload.get("max_cycles",
                                              10_000_000)),
                   sim=payload.get("sim", "fast"),
                   sanitize=bool(payload.get("sanitize", False)),
                   timeout=payload.get("timeout"))
        if spec.sim not in ("fast", "step"):
            raise ValueError(f"unknown sim mode {spec.sim!r}")
        if spec.max_cycles < 1:
            raise ValueError("max_cycles must be >= 1")
        if spec.timeout is not None and float(spec.timeout) <= 0:
            raise ValueError("timeout must be positive")
        return spec


def _dataclass_from(cls, payload: dict, where: str):
    if not isinstance(payload, dict):
        raise ValueError(f"{where} must be a JSON object")
    allowed = {f.name for f in fields(cls)}
    unknown = set(payload) - allowed
    if unknown:
        raise ValueError(
            f"{where}: unknown field(s) {sorted(unknown)}")
    try:
        return cls(**payload)
    except TypeError as exc:
        raise ValueError(f"{where}: {exc}") from None


# -- content keys -------------------------------------------------------------

def resolve_program(spec: ProgramSpec
                    ) -> Tuple[Program, Optional[List[Tuple[int, int]]]]:
    """(program, premapped ranges) exactly as ``run_workload`` sees
    them.  Raises ValueError for unknown benchmarks, AssemblerError for
    bad source."""
    if spec.kind == "asm":
        from ..isa import assemble
        program = assemble(spec.source, name=spec.name)
        premapped = [(0, 1 << 28)] if spec.premap_all else None
        return program, premapped
    if spec.kind == "workload":
        from ..workloads.suite import BENCHMARKS, build
        if spec.source not in BENCHMARKS:
            raise ValueError(f"unknown benchmark {spec.source!r}")
        workload = build(spec.source, spec.scale)
        return workload.program, workload.premapped
    if spec.kind == "imagick":
        from ..workloads.imagick import build_imagick
        workload = build_imagick(optimized=spec.optimized)
        return workload.program, workload.premapped
    raise ValueError(f"unknown program spec kind {spec.kind!r}")


def job_key(spec: JobSpec) -> Tuple[str, str]:
    """(simulation key, job key) of *spec*.

    The simulation key is exactly the ``SimCache`` key the run will
    look up, so the server's dedup accounting lines up with the cache's:
    it never simulates more than once per distinct simulation key.  Like
    the run, it keys the linked image and boots no machine.  The job
    key folds in everything else that shapes the report.
    """
    from ..cpu.config import CoreConfig
    from ..kernel import Kernel
    from ..simfast.cache import simulation_key
    program, premapped = resolve_program(spec.program)
    sim_key = simulation_key(Kernel().link(program),
                             CoreConfig.boom_4wide(), premapped)
    h = hashlib.sha256(sim_key.encode())
    h.update(repr(("profilers",
                   tuple((c.policy, c.period, c.mode, c.seed, c.name)
                         for c in spec.profilers))).encode())
    h.update(repr(("max_cycles", spec.max_cycles)).encode())
    h.update(repr(("sanitize", spec.sanitize)).encode())
    return sim_key, h.hexdigest()


# -- reports ------------------------------------------------------------------

def profile_report(result: ExperimentResult) -> dict:
    """Canonical JSON-ready report of an experiment.

    The server's responses and a direct :func:`~repro.harness.runner.
    run_workload` run produce byte-identical reports for equal inputs
    (``json.dumps(..., sort_keys=True)`` equality), floating point
    included -- both paths run the same simulation and replay code.
    """
    names = sorted(result.profilers)
    report = {
        "program": result.program.name or "",
        "cached": bool(result.cached),
        "stats": (result.stats.to_dict()
                  if result.stats is not None else None),
        "ipc": (result.stats.ipc
                if result.stats is not None else None),
        "errors": {granularity.value: result.errors(granularity, names)
                   for granularity in Granularity},
        "profiles": {name: _json_profile(result.profile(name))
                     for name in names},
        "oracle": _json_profile(result.oracle_profile()),
        "samples": {name: len(result.profilers[name].samples)
                    for name in names},
    }
    if result.sanitizer is not None:
        report["sanitizer"] = result.sanitizer.summary()
    return report


def _json_profile(profile: Dict) -> Dict[str, float]:
    return {str(key): value for key, value in
            sorted(profile.items(), key=lambda item: str(item[0]))}


def execute_job(spec: JobSpec, cache=None) -> dict:
    """Worker entry: run one job; always returns a picklable dict.

    *cache* follows :func:`~repro.harness.run_experiment`; the server
    passes its own :class:`~repro.simfast.SimCache`, so a worker
    records under the server's root and size budget.

    Success: ``{"report", "payload", "warnings"}``.  Deterministic
    failures (budget exhaustion, sanitizer violations) come back as
    ``{"error": {"kind", "message"}}`` so the server reports them
    without retrying.  Unexpected exceptions propagate and surface as
    pool "exception" failures (which are retried).
    """
    from ..cpu.core import MaxCyclesExceeded
    from ..lint.sanitizer import TraceInvariantError
    program, premapped = resolve_program(spec.program)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = run_experiment(program, list(spec.profilers),
                                    premapped_data=premapped,
                                    max_cycles=spec.max_cycles,
                                    sanitize=spec.sanitize,
                                    sim=spec.sim, cache=cache)
        except MaxCyclesExceeded as exc:
            return {"error": {"kind": "max-cycles",
                              "message": str(exc)}}
        except TraceInvariantError as exc:
            return {"error": {"kind": "invariant",
                              "message": str(exc)}}
    return {
        "report": profile_report(result),
        "payload": result_payload(result),
        "warnings": [str(entry.message) for entry in caught],
    }
