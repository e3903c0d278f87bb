"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``profile FILE.s``
    Assemble and profile an assembly program with all profilers.
``suite [NAMES...]``
    Run (a subset of) the 27-benchmark suite and print error tables.
``stacks [NAMES...]``
    Print Figure 7-style cycle stacks for benchmarks.
``imagick``
    Run the Section 6 case study (original vs optimized).
``overhead``
    Print the Section 3.2 overhead summary.
``record FILE.s -o trace.bin``
    Simulate once and serialize the commit-stage trace (columnar,
    chunk-indexed v3).
``replay trace.bin FILE.s``
    Re-profile a recorded v3 trace without re-simulating, one columnar
    block per chunk.
``convert-trace trace.bin -o trace2.bin``
    Upgrade a legacy v1/v2 trace to v3 (or re-chunk a v3 trace).
``bench --trace trace.bin --program FILE.s``
    Time per-record against block replay on a recorded trace and
    write ``BENCH_hotpath.json`` (``--quick`` for CI smoke runs).
``bench --sim``
    Time single-stepping vs the event-driven fast path vs a warm
    simulation-cache hit and write ``BENCH_sim.json``; fails if any
    path is not bit-identical to single-stepping.
``cache stats|clear|verify``
    Inspect, empty or checksum-verify the simulation cache
    (``~/.cache/repro`` or ``--cache-dir``/``$REPRO_CACHE_DIR``).
``serve``
    Run the profiling job server: a long-lived asyncio HTTP/JSON
    daemon that coalesces duplicate submissions by content key, runs
    misses on worker processes with timeout/retry/cancel, and streams
    NDJSON progress events to any number of clients.
``submit TARGET --server HOST:PORT``
    Submit an assembly file, suite benchmark or the imagick case study
    to a running server and wait for (or stream) the report;
    ``--stats`` prints the server's queue/cache/worker health.
``lint TARGET...``
    Statically lint assembly files, directories or benchmark names;
    ``--list-rules`` prints the rule registry and ``--cost`` the
    abstract interpreter's static cycle-cost expectation.
``annotate TARGET``
    Profile TARGET once and diff the measured per-instruction
    attribution against the static cost model, flagging instructions
    whose dynamic share the static expectation cannot explain.
``optimize TARGET``
    Apply dataflow-proven rewrites suggested by the linter (flush-pair
    removal, invariant-flush hoisting, dead-store deletion,
    const-unreachable pruning), verify the transformed program against
    the reference interpreter, and measure the speedup on the
    out-of-order core.

``profile``, ``suite``, ``record`` and ``replay`` accept ``--sanitize``
to validate the commit-stage trace against the commit invariants while
it is produced (or replayed), failing fast on the first violation.
``suite --jobs N`` simulates benchmarks on N worker processes.

``profile``, ``suite`` and ``record`` accept ``--sim step|fast``
(default ``fast``: event-driven stall fast-forwarding, bit-identical
to stepping; ``--paranoid`` cross-checks every fast-forwarded region).
``profile`` and ``suite`` accept ``--cache``/``--cache-dir`` to reuse
the traces of previous identical runs instead of re-simulating.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .analysis import (Granularity, render_error_table,
                       render_profile_table, render_stacks_table)
from .core.overhead import summarize
from .cpu.core import MaxCyclesExceeded
from .cpu.tracefile import DEFAULT_CHUNK_CYCLES
from .cpu.config import CoreConfig
from .harness import default_profilers, run_experiment, run_suite, \
    run_workload
from .isa import assemble
from .lint import TraceInvariantError
from .workloads import build_imagick, build_suite
from .workloads.suite import BENCHMARKS


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--period", type=int, default=13,
                        help="sampling period in cycles (default 13)")
    parser.add_argument("--random", action="store_true",
                        help="random instead of periodic sampling")


def _add_sanitize(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sanitize", action="store_true",
                        help="validate the commit trace against the "
                             "commit-stage invariants (fail fast)")


def _add_sim(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sim", default="fast",
                        choices=["fast", "step"],
                        help="simulation mode: event-driven stall "
                             "fast-forward (default; bit-identical) "
                             "or plain single-stepping")
    parser.add_argument("--paranoid", action="store_true",
                        help="cross-check every fast-forwarded region "
                             "against single-stepping")


def _add_cache(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache", action="store_true", default=None,
                        help="reuse/record simulation results in the "
                             "content-addressed cache")
    parser.add_argument("--no-cache", dest="cache",
                        action="store_false",
                        help="disable the simulation cache")
    parser.add_argument("--cache-dir", default=None,
                        help="cache root (implies --cache; default "
                             "~/.cache/repro or $REPRO_CACHE_DIR)")


def _cache_arg(args):
    """The ``cache=`` value for the harness from the CLI flags."""
    enabled = args.cache if args.cache is not None \
        else args.cache_dir is not None
    if not enabled:
        return None
    return args.cache_dir or True


def _profilers(args):
    mode = "random" if args.random else "periodic"
    return default_profilers(args.period, mode=mode)


def _reject_unknown_benchmarks(names: Optional[List[str]]) -> bool:
    """Print any unknown benchmark names to stderr.  True if any."""
    unknown = [name for name in (names or []) if name not in BENCHMARKS]
    if unknown:
        print("unknown benchmark(s): " + ", ".join(unknown),
              file=sys.stderr)
        print("known: " + ", ".join(BENCHMARKS), file=sys.stderr)
    return bool(unknown)


def cmd_profile(args) -> int:
    with open(args.file) as handle:
        source = handle.read()
    program = assemble(source, name=args.file)
    premapped = [(0, 1 << 28)] if args.map_all else None
    result = run_experiment(program, _profilers(args),
                            premapped_data=premapped,
                            sanitize=args.sanitize, sim=args.sim,
                            paranoid=args.paranoid,
                            cache=_cache_arg(args))
    cached = " (simulation cache hit)" if result.cached else ""
    print(f"{result.stats.committed} instructions, "
          f"{result.stats.cycles} cycles, IPC {result.stats.ipc:.2f}"
          f"{cached}")
    stats = result.stats
    if stats.steady_state_cycles and stats.cycles:
        share = stats.steady_state_cycles / stats.cycles
        print(f"steady-state memoization: "
              f"{stats.steady_state_iterations} iterations, "
              f"{stats.steady_state_cycles} cycles ({share:.0%} of run)")
    print()
    if result.sanitizer is not None:
        print(result.sanitizer.summary() + "\n")
    granularity = Granularity(args.granularity)
    profiles = {"Oracle": result.oracle_profile(granularity)}
    for name in result.profilers:
        profiles[name] = result.profile(name, granularity)
    print(render_profile_table(profiles, program=program, top=args.top,
                               title=f"{granularity.value} profile"))
    print()
    errors = {"program": result.errors(granularity)}
    print(render_error_table(errors, title=f"{granularity.value} error"))
    return 0


def cmd_suite(args) -> int:
    if _reject_unknown_benchmarks(args.benchmarks):
        return 2
    names = args.benchmarks or None
    workloads = build_suite(names, scale=args.scale)
    suite = run_suite(workloads, profilers=_profilers(args),
                      scale=args.scale, verbose=True,
                      sanitize=args.sanitize, jobs=args.jobs,
                      timeout=args.timeout, retries=args.retries,
                      sim=args.sim, paranoid=args.paranoid,
                      cache=_cache_arg(args))
    hits = sum(1 for result in suite.results.values() if result.cached)
    if hits:
        print(f"[suite] {hits} simulation cache hit(s)")
    if suite.results:  # no tables when every benchmark failed
        for granularity in Granularity:
            table = suite.errors(granularity)
            print()
            print(render_error_table(
                table, title=f"{granularity.value}-level error"))
    if args.sanitize:
        print()
        for name, summary in suite.sanitizer_summaries().items():
            print(f"{name}: {summary}")
    if suite.failures:
        print()
        for failure in suite.failures.values():
            print(f"FAILED {failure}", file=sys.stderr)
        return 1
    return 0


def cmd_stacks(args) -> int:
    if _reject_unknown_benchmarks(args.benchmarks):
        return 2
    names = args.benchmarks or None
    workloads = build_suite(names, scale=args.scale)
    suite = run_suite(workloads, profilers=_profilers(args),
                      verbose=True)
    print()
    print(render_stacks_table(suite.cycle_stacks(),
                              title="cycle stacks (Figure 7)"))
    return 0


def cmd_imagick(args) -> int:
    orig = run_workload(build_imagick(optimized=False), _profilers(args))
    opt = run_workload(build_imagick(optimized=True), _profilers(args))
    print(render_stacks_table({"original": orig.cycle_stack(),
                               "optimized": opt.cycle_stack()},
                              title="Imagick before/after"))
    speedup = orig.stats.cycles / opt.stats.cycles
    print(f"\nspeedup: {speedup:.2f}x (paper: 1.93x), "
          f"IPC {orig.stats.ipc:.2f} -> {opt.stats.ipc:.2f}")
    return 0


def cmd_record(args) -> int:
    from .cpu import Machine, TraceWriterV3
    with open(args.file) as handle:
        program = assemble(handle.read(), name=args.file)
    premapped = [(0, 1 << 28)] if args.map_all else None
    machine = Machine(program, premapped_data=premapped)
    sanitizer = None
    if args.sanitize:
        from .lint import TraceSanitizer
        sanitizer = TraceSanitizer.for_machine(machine)
        machine.attach(sanitizer)
    # Path mode: the writer is atomic -- a killed run never leaves a
    # truncated trace at the destination.
    writer = TraceWriterV3(args.output, machine.config.rob_banks,
                           chunk_cycles=args.chunk_cycles,
                           compress=args.compress)
    machine.attach(writer)
    try:
        stats = machine.run(sim=args.sim, paranoid=args.paranoid)
    except BaseException:
        writer.abort()
        raise
    print(f"recorded {stats.cycles} cycles "
          f"({stats.committed} instructions) to {args.output} [v3]")
    if sanitizer is not None:
        print(sanitizer.summary())
    return 0


def cmd_replay(args) -> int:
    from .harness import ProfilerConfig, replay_experiment
    from .kernel import Kernel
    with open(args.program) as handle:
        program = assemble(handle.read(), name=args.program)
    image = Kernel().link(program)
    mode = "random" if args.random else "periodic"
    configs = [ProfilerConfig(args.policy, args.period, mode)]
    try:
        result = replay_experiment(args.trace, image, configs,
                                   sanitize=args.sanitize)
    except (OSError, ValueError) as exc:
        print(f"cannot replay {args.trace}: {exc}", file=sys.stderr)
        return 2
    profiler = result.profilers[args.policy]
    granularity = Granularity(args.granularity)
    error = result.error(args.policy, granularity)
    print(f"replayed {result.oracle.total_cycles} cycles, "
          f"{len(profiler.samples)} samples")
    print(f"{args.policy} {granularity.value}-level error: {error:.2%}")
    if result.sanitizer is not None:
        print(result.sanitizer.summary())
    return 0


def cmd_convert_trace(args) -> int:
    from .cpu import convert_trace
    try:
        records = convert_trace(args.trace, args.output,
                                chunk_cycles=args.chunk_cycles,
                                compress=args.compress)
    except (OSError, ValueError) as exc:
        print(f"cannot convert {args.trace}: {exc}", file=sys.stderr)
        return 2
    print(f"converted {records} records to {args.output} [v3]")
    return 0


def cmd_bench(args) -> int:
    if args.sim:
        return _cmd_bench_sim(args)
    if not args.program:
        print("--trace requires --program", file=sys.stderr)
        return 2
    return _cmd_bench_hotpath(args)


def _cmd_bench_sim(args) -> int:
    from .simfast import render_sim_bench, run_sim_bench
    from .simfast.bench import SIM_BENCHMARKS
    benchmarks = args.benchmarks or list(SIM_BENCHMARKS)
    if _reject_unknown_benchmarks(benchmarks):
        return 2
    result = run_sim_bench(benchmarks, output=args.sim_output,
                           quick=args.quick, verbose=True)
    print(render_sim_bench(result))
    return 0 if result["checksums_equal"] else 1


def cmd_cache(args) -> int:
    from .simfast import SimCache
    cache = SimCache(args.cache_dir)
    if args.action == "stats":
        info = cache.stats()
        print(f"{info['root']}: {info['entries']} entr"
              f"{'y' if info['entries'] == 1 else 'ies'}, "
              f"{info['bytes'] / 1e6:.1f} MB "
              f"(cap {info['max_bytes'] / 1e6:.0f} MB)")
        return 0
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} file(s) from {cache.root}")
        return 0
    results = cache.verify(remove=args.remove)
    bad = sorted(key for key, ok in results.items() if not ok)
    for key in bad:
        print(f"BAD {key}" + (" (removed)" if args.remove else ""))
    print(f"{len(results) - len(bad)}/{len(results)} entries OK")
    return 1 if bad and not args.remove else 0


def _cmd_bench_hotpath(args) -> int:
    from .fastpath import render_hotpath_bench, run_hotpath_bench
    from .kernel import Kernel
    with open(args.program) as handle:
        source = handle.read()
    image = Kernel().link(assemble(source, name=args.program))
    mode = "random" if args.random else "periodic"
    result = run_hotpath_bench(args.trace, image,
                               output=args.hotpath_output,
                               period=args.period, mode=mode,
                               seed=args.seed, quick=args.quick,
                               verbose=True)
    print(render_hotpath_bench(result))
    return 0 if result["checksums_equal"] else 1


def _lint_targets(targets: List[str]):
    """Resolve lint targets to (label, Program, premapped) triples.

    A target is an assembly file, a directory (linted recursively), a
    suite benchmark name, or ``imagick-orig`` / ``imagick-opt``.
    Workload targets carry their premapped data regions so the
    abstract interpreter's bounds rules see the real memory map.
    Unresolvable targets are returned separately.
    """
    programs = []
    bad: List[str] = []
    for target in targets:
        if os.path.isdir(target):
            files = sorted(
                os.path.join(root, name)
                for root, _dirs, names in os.walk(target)
                for name in names if name.endswith(".s"))
            if not files:
                bad.append(f"{target} (no .s files)")
            for path in files:
                with open(path) as handle:
                    programs.append(
                        (path, assemble(handle.read(), name=path), ()))
        elif os.path.isfile(target):
            with open(target) as handle:
                programs.append(
                    (target, assemble(handle.read(), name=target), ()))
        elif target in ("imagick-orig", "imagick-opt"):
            workload = build_imagick(optimized=target.endswith("-opt"))
            programs.append((target, workload.program,
                             tuple(workload.premapped)))
        elif target in BENCHMARKS:
            workload, = build_suite([target], scale=0.1)
            programs.append((target, workload.program,
                             tuple(workload.premapped)))
        else:
            bad.append(target)
    return programs, bad


def _list_rules(fmt: str, dataflow: bool) -> int:
    """``repro lint --list-rules``: print the rule registry."""
    from .lint import Severity
    from .lint.rules import DATAFLOW_RULE_IDS, RULES_BY_ID
    from .lint.absint.rules import ABSINT_RULE_IDS
    rows = []
    for rule_id in sorted(RULES_BY_ID):
        rule = RULES_BY_ID[rule_id]
        if rule_id in ABSINT_RULE_IDS:
            tier = "absint"
        elif rule_id in DATAFLOW_RULE_IDS:
            tier = "dataflow"
        else:
            tier = "structural"
        if not dataflow and tier != "structural":
            continue
        rows.append({"id": rule_id, "name": rule.name,
                     "severity": rule.severity.value
                     if isinstance(rule.severity, Severity)
                     else str(rule.severity),
                     "tier": tier,
                     "description": rule.description})
    if fmt == "json":
        print(json.dumps(rows, indent=2))
        return 0
    for row in rows:
        print(f"{row['id']}  {row['severity']:<7}  {row['tier']:<10}  "
              f"{row['name']}: {row['description']}")
    return 0


def cmd_lint(args) -> int:
    """Exit codes: 0 clean, 1 diagnostics found, 2 usage/internal error.

    Without ``--strict`` only error-severity diagnostics exit 1;
    with it any diagnostic does.
    """
    fmt = "json" if args.json else (args.format or "text")
    if args.list_rules:
        return _list_rules(fmt, args.dataflow)
    if not args.targets:
        print("lint: a TARGET (or --list-rules) is required",
              file=sys.stderr)
        return 2
    if args.observers:
        return _lint_observers(args, fmt)
    from .isa.assembler import AssemblerError
    from .lint import Linter
    try:
        programs, bad = _lint_targets(args.targets)
    except (AssemblerError, OSError) as exc:
        print(f"cannot lint: {exc}", file=sys.stderr)
        return 2
    if bad:
        print("cannot lint: " + ", ".join(bad), file=sys.stderr)
        return 2
    if args.cost:
        return _lint_cost(programs, fmt, args.top)
    linter = Linter(dataflow=args.dataflow)
    reports = [linter.run(program,
                          path=label if os.path.isfile(label) else None,
                          honor_ignores=not args.no_ignores,
                          regions=premapped)
               for label, program, premapped in programs]
    if fmt == "json":
        print(json.dumps([report.to_dict() for report in reports],
                         indent=2))
    else:
        for report in reports:
            print(report.render())
    if any(report.errors for report in reports):
        return 1
    if args.strict and any(report.diagnostics for report in reports):
        return 1
    return 0


def _lint_observers(args, fmt: str) -> int:
    """``repro lint --observers``: contract-check Python sources."""
    from .lint.contracts import check_observer_contracts
    bad = [target for target in args.targets
           if not os.path.exists(target)]
    if bad:
        print("cannot lint: " + ", ".join(bad), file=sys.stderr)
        return 2
    report = check_observer_contracts(args.targets)
    if fmt == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    if report.errors:
        return 1
    if args.strict and report.diagnostics:
        return 1
    return 0


def _lint_cost(programs, fmt: str, top: Optional[int]) -> int:
    """``repro lint --cost``: print the static cost expectation."""
    from .lint import static_cost_report
    from .lint.cfg import build_cfg
    from .lint.context import LintContext
    payload = []
    for label, program, premapped in programs:
        ctx = LintContext(program, build_cfg(program),
                          regions=tuple(premapped))
        report = static_cost_report(ctx)
        if fmt == "json":
            payload.append({"target": label, **report.to_dict()})
        else:
            print(f"{label}:")
            print(report.render(top=top))
            print()
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    return 0


def cmd_annotate(args) -> int:
    """Exit codes: 0 report produced (1 with --strict if any
    instruction diverges), 2 usage/internal error."""
    from .analysis import annotate_profile
    from .isa.assembler import AssemblerError
    try:
        resolved = _optimize_target(args.target, args.scale)
    except (AssemblerError, OSError) as exc:
        print(f"cannot annotate: {exc}", file=sys.stderr)
        return 2
    if resolved is None:
        print(f"cannot annotate: unknown target {args.target!r}",
              file=sys.stderr)
        return 2
    label, program, premapped = resolved

    mode = "random" if args.random else "periodic"
    profilers = default_profilers(args.period, mode=mode,
                                  policies=[args.policy])
    result = run_experiment(program, profilers,
                            premapped_data=list(premapped) or None,
                            sim=args.sim, paranoid=args.paranoid,
                            cache=_cache_arg(args))
    profile = result.profile(args.policy, Granularity.INSTRUCTION)
    report = annotate_profile(program, profile, target=label,
                              policy=args.policy,
                              regions=tuple(premapped),
                              factor=args.factor, margin=args.margin)
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2)
            handle.write("\n")
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render(top=args.top))
        if args.output:
            print(f"wrote report to {args.output}")
    if args.strict and report.divergent:
        return 1
    return 0


def _optimize_target(target: str, scale: float):
    """Resolve an optimize target to (label, Program, premapped)."""
    if os.path.isfile(target):
        with open(target) as handle:
            return target, assemble(handle.read(), name=target), []
    if target in ("imagick-orig", "imagick-opt"):
        workload = build_imagick(optimized=target.endswith("-opt"))
        return target, workload.program, workload.premapped
    if target in BENCHMARKS:
        workload, = build_suite([target], scale=scale)
        return target, workload.program, workload.premapped
    return None


def cmd_optimize(args) -> int:
    """Exit codes: 0 optimized and verified, 1 a check failed,
    2 usage/internal error."""
    from .isa import disassemble
    from .isa.assembler import AssemblerError
    from .opt import (diff_architectural, measure_speedup,
                      optimize_program)
    try:
        resolved = _optimize_target(args.target, args.scale)
    except (AssemblerError, OSError) as exc:
        print(f"cannot optimize: {exc}", file=sys.stderr)
        return 2
    if resolved is None:
        print(f"cannot optimize: unknown target {args.target!r}",
              file=sys.stderr)
        return 2
    label, program, premapped = resolved

    result = optimize_program(program, max_passes=args.max_passes,
                              honor_ignores=not args.no_ignores)
    report = {"target": label, "optimization": result.to_dict()}
    failed = False

    differential = diff_architectural(program, result.program,
                                      trials=args.trials)
    report["differential"] = differential.to_dict()
    if not differential.identical:
        failed = True

    speedup = None
    if not args.no_measure and result.changed \
            and differential.identical:
        speedup = measure_speedup(program, result.program,
                                  premapped_data=premapped or None,
                                  sim=args.sim,
                                  cache=_cache_arg(args))
        report["speedup"] = speedup.to_dict()
        if args.min_speedup is not None \
                and speedup.speedup < args.min_speedup:
            failed = True

    if args.output:
        with open(args.output, "w") as handle:
            handle.write(disassemble(result.program))
    if args.report:
        with open(args.report, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")

    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(result.render())
        print(differential.render())
        if speedup is not None:
            print(speedup.render())
        if args.min_speedup is not None and speedup is not None \
                and speedup.speedup < args.min_speedup:
            print(f"FAILED: speedup {speedup.speedup:.2f}x below "
                  f"required {args.min_speedup:.2f}x")
        if args.output:
            print(f"wrote optimized assembly to {args.output}")
        if args.report:
            print(f"wrote report to {args.report}")
    return 1 if failed else 0


def cmd_serve(args) -> int:
    import asyncio

    from .serve import ProfileServer
    enabled = args.cache if args.cache is not None else True
    cache = (args.cache_dir or True) if enabled else None
    server = ProfileServer(host=args.host, port=args.port,
                           workers=args.workers, retries=args.retries,
                           cache=cache, job_timeout=args.job_timeout)

    async def _main() -> None:
        host, port = await server.start()
        state = "on" if server.cache is not None else "off"
        print(f"serving on http://{host}:{port} "
              f"({args.workers} worker(s), cache {state})", flush=True)
        await server.serve_forever()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("interrupted; shutting down", file=sys.stderr)
    return 0


def _submit_spec(args):
    """Build the JobSpec for a submit target (None if unresolvable)."""
    from .serve import JobSpec, ProgramSpec
    mode = "random" if args.random else "periodic"
    common = dict(period=args.period, mode=mode)
    if os.path.isfile(args.target):
        with open(args.target) as handle:
            source = handle.read()
        spec = JobSpec.for_source(source, name=args.target,
                                  premap_all=args.map_all, **common)
    elif args.target in ("imagick-orig", "imagick-opt"):
        from .serve.jobs import _default_profilers
        program = ProgramSpec(kind="imagick", name=args.target,
                              optimized=args.target.endswith("-opt"))
        spec = JobSpec(program=program,
                       profilers=_default_profilers(**common))
    elif args.target in BENCHMARKS:
        spec = JobSpec.for_benchmark(args.target, scale=args.scale,
                                     **common)
    else:
        return None
    if args.max_cycles is not None or args.job_timeout is not None:
        from dataclasses import replace
        spec = replace(
            spec,
            max_cycles=(args.max_cycles if args.max_cycles is not None
                        else spec.max_cycles),
            timeout=args.job_timeout)
    return spec


def cmd_submit(args) -> int:
    """Exit codes: 0 report received, 1 job failed/cancelled,
    2 usage/connection error."""
    from .serve import ClientError, JobFailed, ServeClient
    try:
        client = ServeClient.from_address(args.server)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        if args.stats:
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
            return 0
        if args.cancel:
            reply = client.cancel(args.cancel)
            print(f"{reply['job']}: {reply['state']}")
            return 0
        if not args.target:
            print("submit: a TARGET (or --stats/--cancel) is required",
                  file=sys.stderr)
            return 2
        spec = _submit_spec(args)
        if spec is None:
            print(f"unknown target {args.target!r} (not a file, suite "
                  f"benchmark, or imagick-orig/imagick-opt)",
                  file=sys.stderr)
            return 2
        job, coalesced = client.submit(spec)
        note = " (coalesced onto an in-flight duplicate)" \
            if coalesced else ""
        print(f"job {job}{note}", file=sys.stderr)
        if args.no_wait:
            print(job)
            return 0
        if args.stream:
            for event in client.stream(job):
                print(json.dumps(event, sort_keys=True),
                      file=sys.stderr)
        info = client.wait(job, timeout=args.timeout)
    except JobFailed as exc:  # includes JobCancelled
        print(str(exc), file=sys.stderr)
        return 1
    except (ClientError, TimeoutError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot reach server {args.server}: {exc}",
              file=sys.stderr)
        return 2
    for warning in info.get("warnings", ()):
        print(f"warning: {warning}", file=sys.stderr)
    report = info["report"]
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    stats = report.get("stats") or {}
    cached = " (simulation cache hit)" if report.get("cached") else ""
    print(f"{stats.get('committed', '?')} instructions, "
          f"{stats.get('cycles', '?')} cycles, "
          f"IPC {report.get('ipc') or 0.0:.2f}{cached}")
    if stats.get("steady_state_cycles") and stats.get("cycles"):
        share = stats["steady_state_cycles"] / stats["cycles"]
        print(f"steady-state memoization: "
              f"{stats.get('steady_state_iterations', 0)} iterations, "
              f"{stats['steady_state_cycles']} cycles "
              f"({share:.0%} of run)")
    print()
    if "sanitizer" in report:
        print(report["sanitizer"] + "\n")
    errors = {args.target: report["errors"]["instruction"]}
    print(render_error_table(errors, title="instruction error"))
    return 0


def cmd_overhead(_args) -> int:
    summary = summarize(CoreConfig.boom_4wide())
    print(f"profiler storage:       {summary.storage_bytes} B")
    print(f"TIP sample record:      {summary.tip_sample_bytes} B")
    print(f"baseline sample record: {summary.baseline_sample_bytes} B")
    print(f"TIP data rate @4kHz:    "
          f"{summary.tip_rate_bytes_per_s / 1000:.0f} KB/s")
    print(f"baseline rate @4kHz:    "
          f"{summary.baseline_rate_bytes_per_s / 1000:.0f} KB/s")
    print(f"Oracle trace rate:      "
          f"{summary.oracle_rate_bytes_per_s / 1e9:.1f} GB/s")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TIP (MICRO 2021) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    profile = sub.add_parser("profile", help="profile an assembly file")
    profile.add_argument("file")
    profile.add_argument("--granularity", default="instruction",
                         choices=[g.value for g in Granularity])
    profile.add_argument("--top", type=int, default=15)
    profile.add_argument("--map-all", action="store_true",
                         help="premap the whole data address space")
    _add_common(profile)
    _add_sanitize(profile)
    _add_sim(profile)
    _add_cache(profile)
    profile.set_defaults(func=cmd_profile)

    suite = sub.add_parser("suite", help="run the benchmark suite")
    suite.add_argument("benchmarks", nargs="*")
    suite.add_argument("--scale", type=float, default=0.5)
    suite.add_argument("--jobs", type=int, default=1,
                       help="simulate benchmarks on N worker processes")
    suite.add_argument("--timeout", type=float, default=None,
                       help="per-benchmark wall-clock budget (seconds)")
    suite.add_argument("--retries", type=int, default=1,
                       help="extra attempts for a failed worker")
    _add_common(suite)
    _add_sanitize(suite)
    _add_sim(suite)
    _add_cache(suite)
    suite.set_defaults(func=cmd_suite)

    stacks = sub.add_parser("stacks", help="print cycle stacks")
    stacks.add_argument("benchmarks", nargs="*")
    stacks.add_argument("--scale", type=float, default=0.5)
    _add_common(stacks)
    stacks.set_defaults(func=cmd_stacks)

    imagick = sub.add_parser("imagick", help="run the case study")
    _add_common(imagick)
    imagick.set_defaults(func=cmd_imagick)

    overhead = sub.add_parser("overhead",
                              help="Section 3.2 overhead summary")
    overhead.set_defaults(func=cmd_overhead)

    serve = sub.add_parser(
        "serve", help="run the profiling job server",
        description="Long-running asyncio HTTP/JSON daemon: coalesces "
                    "duplicate submissions by content key, runs misses "
                    "on worker processes, streams NDJSON progress. "
                    "The simulation cache is ON by default here "
                    "(--no-cache to disable).")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8763,
                       help="listen port (0 = ephemeral; default 8763)")
    serve.add_argument("--workers", type=int, default=2,
                       help="concurrent worker processes")
    serve.add_argument("--retries", type=int, default=1,
                       help="extra attempts for a crashed/hung worker")
    serve.add_argument("--job-timeout", type=float, default=600.0,
                       help="default per-job wall-clock budget (s)")
    _add_cache(serve)
    serve.set_defaults(func=cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit a job to a running server",
        description="TARGET is an assembly file, a suite benchmark "
                    "name, or imagick-orig/imagick-opt.")
    submit.add_argument("target", nargs="?",
                        help="assembly file, benchmark name, or "
                             "imagick-orig/imagick-opt")
    submit.add_argument("--server", required=True,
                        metavar="HOST:PORT")
    submit.add_argument("--scale", type=float, default=0.5,
                        help="benchmark scale (named benchmarks)")
    submit.add_argument("--map-all", action="store_true",
                        help="premap the whole data address space "
                             "(assembly files)")
    submit.add_argument("--max-cycles", type=int, default=None)
    submit.add_argument("--job-timeout", type=float, default=None,
                        help="server-side wall-clock budget for this "
                             "job (seconds)")
    submit.add_argument("--timeout", type=float, default=600.0,
                        help="client-side wait budget (seconds)")
    submit.add_argument("--stream", action="store_true",
                        help="print NDJSON progress events to stderr "
                             "while waiting")
    submit.add_argument("--no-wait", action="store_true",
                        help="print the job id and exit immediately")
    submit.add_argument("--json", action="store_true",
                        help="print the raw JSON report")
    submit.add_argument("--stats", action="store_true",
                        help="print the server's /stats and exit")
    submit.add_argument("--cancel", metavar="JOB",
                        help="cancel a job instead of submitting")
    _add_common(submit)
    submit.set_defaults(func=cmd_submit)

    record = sub.add_parser("record", help="record a commit-stage trace")
    record.add_argument("file")
    record.add_argument("-o", "--output", default="trace.tiptrace")
    record.add_argument("--map-all", action="store_true")
    record.add_argument("--chunk-cycles", type=int,
                        default=DEFAULT_CHUNK_CYCLES,
                        help="records per chunk")
    record.add_argument("--compress", action="store_true",
                        help="zlib-compress chunk payloads "
                             "(disables zero-copy replay)")
    _add_sanitize(record)
    _add_sim(record)
    record.set_defaults(func=cmd_record)

    replay = sub.add_parser("replay", help="re-profile a recorded trace")
    replay.add_argument("trace")
    replay.add_argument("program")
    replay.add_argument("--policy", default="TIP",
                        choices=["Software", "Dispatch", "LCI", "NCI",
                                 "NCI+ILP", "TIP-ILP", "TIP"])
    replay.add_argument("--granularity", default="instruction",
                        choices=[g.value for g in Granularity])
    _add_common(replay)
    _add_sanitize(replay)
    replay.set_defaults(func=cmd_replay)

    convert = sub.add_parser(
        "convert-trace",
        help="re-encode a trace (any version) as v3; upgrades legacy "
             "v1/v2 traces")
    convert.add_argument("trace")
    convert.add_argument("-o", "--output", required=True)
    convert.add_argument("--chunk-cycles", type=int,
                         default=DEFAULT_CHUNK_CYCLES)
    convert.add_argument("--compress", action="store_true")
    convert.set_defaults(func=cmd_convert_trace)

    bench = sub.add_parser(
        "bench", help="time block replay (--trace) or the simulation "
                      "fast paths (--sim)")
    bench.add_argument("benchmarks", nargs="*")
    what = bench.add_mutually_exclusive_group(required=True)
    what.add_argument("--trace",
                      help="recorded trace: benchmark per-record "
                           "against block replay on it")
    what.add_argument("--sim", action="store_true",
                      help="benchmark step vs fast-forward vs "
                           "cache-hit simulation")
    bench.add_argument("--program",
                       help="assembly source the trace was recorded "
                            "from (required with --trace)")
    bench.add_argument("--quick", action="store_true",
                       help="fewer timing repetitions (CI smoke)")
    bench.add_argument("--seed", type=int, default=0,
                       help="sampling seed for --trace runs")
    bench.add_argument("--hotpath-output", default="BENCH_hotpath.json",
                       help="output file for --trace runs")
    bench.add_argument("--sim-output", default="BENCH_sim.json",
                       help="output file for --sim runs")
    _add_common(bench)
    bench.set_defaults(func=cmd_bench)

    cache = sub.add_parser(
        "cache", help="manage the simulation result cache")
    cache.add_argument("action", choices=["stats", "clear", "verify"])
    cache.add_argument("--cache-dir", default=None,
                       help="cache root (default ~/.cache/repro or "
                            "$REPRO_CACHE_DIR)")
    cache.add_argument("--remove", action="store_true",
                       help="evict entries that fail verification")
    cache.set_defaults(func=cmd_cache)

    lint = sub.add_parser(
        "lint", help="statically lint programs",
        description="Lint assembly files, directories of .s files, "
                    "suite benchmark names, or imagick-orig/imagick-opt. "
                    "With --observers, targets are Python sources checked "
                    "against the observer/profiler contracts (C001, "
                    "C004). "
                    "Exit status: 0 clean, 1 diagnostics found, 2 "
                    "usage/internal error.")
    lint.add_argument("targets", nargs="*")
    lint.add_argument("--format", choices=("text", "json"), default=None,
                      help="output format (default text)")
    lint.add_argument("--json", action="store_true",
                      help="shorthand for --format json")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule registry (id, severity, "
                           "tier, summary) and exit")
    lint.add_argument("--cost", action="store_true",
                      help="print the abstract interpreter's static "
                           "cycle-cost expectation instead of "
                           "diagnostics")
    lint.add_argument("--top", type=int, default=None,
                      help="with --cost, show only the N most "
                           "expensive instructions")
    lint.add_argument("--dataflow", dest="dataflow",
                      action="store_true", default=True,
                      help="enable the dataflow rule family "
                           "L009-L013 (default)")
    lint.add_argument("--no-dataflow", dest="dataflow",
                      action="store_false",
                      help="disable the dataflow rule family")
    lint.add_argument("--observers", action="store_true",
                      help="check observer/profiler contracts in "
                           "Python sources")
    lint.add_argument("--strict", action="store_true",
                      help="exit 1 on any diagnostic, not only errors")
    lint.add_argument("--no-ignores", action="store_true",
                      help="report diagnostics even at addresses "
                           "carrying a '# lint: ignore[...]' pragma")
    lint.set_defaults(func=cmd_lint)

    annotate = sub.add_parser(
        "annotate", help="diff static cost model against a TIP profile",
        description="Simulate TARGET once with a sampling profiler, "
                    "then render the abstract interpreter's static "
                    "cycle expectation next to the measured "
                    "attribution per instruction.  Instructions whose "
                    "dynamic share exceeds "
                    "max(FACTOR * static, static + MARGIN) are "
                    "flagged divergent: they suffer a dynamic "
                    "pathology (flushes, cache misses, serialization) "
                    "the static model cannot see. Exit status: 0 "
                    "report produced, 1 divergence found under "
                    "--strict, 2 usage/internal error.")
    annotate.add_argument("target",
                          help="an .s file, a suite benchmark name, "
                               "or imagick-orig/imagick-opt")
    annotate.add_argument("--policy", default="TIP",
                          choices=["Software", "Dispatch", "LCI", "NCI",
                                   "NCI+ILP", "TIP-ILP", "TIP"])
    annotate.add_argument("--factor", type=float, default=2.0,
                          help="multiplicative divergence threshold "
                               "(default 2.0)")
    annotate.add_argument("--margin", type=float, default=0.02,
                          help="additive divergence threshold in "
                               "absolute share (default 0.02)")
    annotate.add_argument("--top", type=int, default=20,
                          help="show the N hottest instructions "
                               "(default 20)")
    annotate.add_argument("--scale", type=float, default=0.1,
                          help="suite benchmark scale factor "
                               "(default 0.1)")
    annotate.add_argument("--json", action="store_true",
                          help="print the JSON report to stdout")
    annotate.add_argument("-o", "--output", default=None,
                          help="write the JSON report to this file")
    annotate.add_argument("--strict", action="store_true",
                          help="exit 1 when any instruction diverges")
    _add_common(annotate)
    _add_sim(annotate)
    _add_cache(annotate)
    annotate.set_defaults(func=cmd_annotate)

    optimize = sub.add_parser(
        "optimize", help="apply dataflow-proven rewrites",
        description="Optimize an assembly file, a suite benchmark or "
                    "imagick-orig: lint, prove each structured fix "
                    "hint from dataflow facts, rewrite, then verify "
                    "the result differentially on the reference "
                    "interpreter and measure the speedup on the "
                    "out-of-order core. Exit status: 0 verified, 1 a "
                    "check failed, 2 usage/internal error.")
    optimize.add_argument("target",
                          help="an .s file, a suite benchmark name, "
                               "or imagick-orig")
    optimize.add_argument("-o", "--output", default=None,
                          help="write the optimized program as "
                               "assembly to this file")
    optimize.add_argument("--report", default=None,
                          help="write the full JSON report (rewrites, "
                               "certificates, differential, speedup) "
                               "to this file")
    optimize.add_argument("--json", action="store_true",
                          help="print the JSON report to stdout")
    optimize.add_argument("--trials", type=int, default=4,
                          help="differential trials incl. the "
                               "as-built image (default 4)")
    optimize.add_argument("--min-speedup", type=float, default=None,
                          help="fail (exit 1) unless the measured "
                               "speedup reaches this factor")
    optimize.add_argument("--no-measure", action="store_true",
                          help="skip the core simulation; only "
                               "rewrite and run the differential")
    optimize.add_argument("--no-ignores", action="store_true",
                          help="optimize findings even at addresses "
                               "carrying a '# lint: ignore[...]' "
                               "pragma")
    optimize.add_argument("--max-passes", type=int, default=8,
                          help="rewrite-pass budget (default 8)")
    optimize.add_argument("--scale", type=float, default=0.1,
                          help="suite benchmark scale factor "
                               "(default 0.1)")
    _add_sim(optimize)
    _add_cache(optimize)
    optimize.set_defaults(func=cmd_optimize)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TraceInvariantError as exc:
        print(f"sanitizer violation: {exc}", file=sys.stderr)
        return 1
    except MaxCyclesExceeded as exc:
        print(f"simulation budget exhausted: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
