"""The traced round: per-layer numbers from spans around public calls.

Measured from outside the program.  While a traced operation runs, the
public functions it calls (:data:`CALLS`) are replaced by shims that
record a span around the real call, and the operation itself is the
same :func:`~bench.workloads.operation` an untraced round times, so a
traced operation takes exactly the untraced path, the pool included.
Pool workers are forked with the shims in place; each ships its spans
back inside its result payload.  A layer that can only be isolated by
attaching it is measured as a difference: ``machine.run(sim="fast")``
with the layer's observer attached minus the bare run.  Spans stay in
memory and are written to one JSON file when the round ends.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import statistics
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

from .round import timed_op
from .workloads import MAX_CYCLES, PERIOD, Spec

#: (module, attribute, span name): the public calls a traced operation
#: and the workload build are split into.
CALLS = (
    ("repro.workloads.suite", "build", "workloads.build"),
    ("repro.workloads", "build_imagick", "workloads.build"),
    ("repro.workloads.generator", "self_check_program", "lint.self_check"),
    ("repro.workloads.imagick", "self_check_program", "lint.self_check"),
    ("repro.harness.runner", "run_workload", "harness.experiment"),
    ("repro.harness.runner", "SuiteResult.errors", "analysis.report"),
    ("repro.harness.experiment", "Machine", "kernel.boot"),
    ("repro.cpu.machine", "Machine.run", "cpu.run"),
    ("repro.simfast.cache", "SimCache.key_for", "simfast.key"),
    ("repro.simfast.cache", "SimCache.lookup", "simfast.lookup"),
    ("repro.simfast.cache", "SimCache.open_writer", "simfast.open_writer"),
    ("repro.simfast.cache", "SimCache.commit", "simfast.commit"),
    ("repro.fastpath.engine", "replay_with_engine", "fastpath.replay"),
    ("repro.parallel.suite", "run_jobs", "parallel.run_jobs"),
    ("repro.parallel.suite", "simulate_benchmark", "parallel.worker"),
)

#: Passes over the subtraction runs; each layer time is a median.
LAYER_REPS = 5

#: Payload key under which a pool worker ships its spans.
WORKER_SPANS = "bench_spans"


class Spans:
    """Nested monotonic spans: name, start, end, parent, op id and pid."""

    def __init__(self):
        self.records: List[dict] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, op: Optional[str] = None,
             label: Optional[str] = None):
        parent = self._open[-1] if self._open else None
        if op is None and parent is not None:
            op = self.records[parent]["op"]
        record = {"id": len(self.records), "name": name, "label": label,
                  "parent": parent, "op": op, "pid": os.getpid(),
                  "start": time.perf_counter(), "end": None}
        self.records.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def adopt(self, records: List[dict]) -> None:
        """Append spans a forked worker recorded into its copy of this
        recorder.  Its ids are renumbered; a parent id it does not know
        is a span that was open here when the worker forked."""
        renumbered: Dict[int, int] = {}
        for record in records:
            record = dict(record)
            renumbered[record["id"]] = record["id"] = len(self.records)
            record["parent"] = renumbered.get(record["parent"],
                                              record["parent"])
            self.records.append(record)

    @staticmethod
    def duration(record: dict) -> float:
        return record["end"] - record["start"]

    def total(self, name: str, op: Optional[str] = None) -> float:
        return sum(self.duration(r) for r in self.records
                   if r["name"] == name and (op is None or r["op"] == op))

    def self_times(self) -> Dict[str, float]:
        """name -> summed self time: duration minus the time covered by
        the children, which overlap where pool workers ran them."""
        children: Dict[int, List[tuple]] = {}
        for record in self.records:
            if record["parent"] is not None:
                children.setdefault(record["parent"], []).append(
                    (record["start"], record["end"]))
        totals: Dict[str, float] = {}
        for record in self.records:
            covered, reach = 0.0, float("-inf")
            for start, end in sorted(children.get(record["id"], ())):
                covered += max(0.0, end - max(start, reach))
                reach = max(reach, end)
            totals[record["name"]] = (totals.get(record["name"], 0.0)
                                      + self.duration(record) - covered)
        return totals


@contextmanager
def instrumented(spans: Spans, reports: list):
    """Replace every call of :data:`CALLS` by a span-recording shim.

    The ``run_jobs`` shim also keeps each pool report in *reports* and
    adopts the spans its workers shipped back.
    """
    parent_pid = os.getpid()
    undo = []
    for module, attribute, name in CALLS:
        owner = importlib.import_module(module)
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        if name == "parallel.run_jobs":
            shim = _run_jobs_shim(spans, reports, original)
        elif name == "parallel.worker":
            shim = _worker_shim(spans, parent_pid, original)
        else:
            shim = _span_shim(spans, name, original)
        setattr(owner, leaf, shim)
        undo.append((owner, leaf, original))
    try:
        yield
    finally:
        for owner, leaf, original in reversed(undo):
            setattr(owner, leaf, original)


def _label(args) -> Optional[str]:
    """The benchmark, program or file a call is about, when it says so."""
    if args and isinstance(args[0], str):
        return os.path.basename(args[0])
    name = getattr(args[0], "name", None) if args else None
    return name if isinstance(name, str) else None


def _span_shim(spans: Spans, name: str, original):
    def shim(*args, **kwargs):
        with spans.span(name, label=_label(args)):
            return original(*args, **kwargs)
    return shim


def _run_jobs_shim(spans: Spans, reports: list, original):
    def shim(*args, **kwargs):
        with spans.span("parallel.run_jobs"):
            report = original(*args, **kwargs)
        for payload in report.results.values():
            spans.adopt(payload.pop(WORKER_SPANS, []))
        reports.append(report)
        return report
    return shim


def _worker_shim(spans: Spans, parent_pid: int, original):
    def shim(*args, **kwargs):
        first = len(spans.records)
        with spans.span("parallel.worker", label=_label(args)):
            payload = original(*args, **kwargs)
        if os.getpid() != parent_pid:  # not the pool's in-process fallback
            payload[WORKER_SPANS] = spans.records[first:]
        return payload
    return shim


class BlockCounter:
    """Block-native observer that touches every block and nothing more:
    replaying a v3 trace through it times the decode alone."""

    def __init__(self):
        self.cycles = 0

    def on_block(self, block) -> None:
        self.cycles += len(block)

    def on_finish(self, final_cycle: int) -> None:
        pass


def _interleaved(spans: Spans, label: str, prepares: dict, reps: int):
    """Time the thunks that *prepares* (name -> builder) build.

    Each of *reps* passes builds and runs every thunk once, in turn, so
    that a burst of interference lands on all of them alike; only the
    thunk is timed.  Returns name -> median seconds and name -> the
    last thunk's result.
    """
    times: Dict[str, List[float]] = {name: [] for name in prepares}
    results = {}
    for _ in range(reps):
        for name, prepare in prepares.items():
            thunk = prepare()
            with spans.span(name, op="layers", label=label) as span:
                results[name] = thunk()
            times[name].append(Spans.duration(span))
    return ({name: statistics.median(t) for name, t in times.items()},
            results)


def layer_costs(spans: Spans, workload, configs, reps: int,
                scratch: str) -> dict:
    """Subtraction runs for one workload; every time is a median."""
    from repro.core.oracle import OracleProfiler
    from repro.cpu.machine import Machine
    from repro.cpu.tracefile import TraceWriterV3
    from repro.fastpath.engine import replay_with_engine

    image = Machine(workload.program, None, workload.premapped).image
    distinct = {(p.period, p.mode, p.seed): p for p in configs}
    path = os.path.join(scratch, f"{workload.name}.trace")

    def oracle(_machine=None):
        return [OracleProfiler(image, watch_schedules=[
            p.schedule_clone() for p in distinct.values()])]

    def policies(_machine=None):
        return [config.build(image) for config in configs]

    def writer(machine):
        return [TraceWriterV3(path, banks=machine.config.rob_banks)]

    def simulate(attach):
        """``machine.run(sim="fast")`` with *attach*'s observers; boot
        is part of the preparation, not of the timed run."""
        def prepare():
            machine = Machine(workload.program, None, workload.premapped)
            for observer in attach(machine):
                machine.attach(observer)
            return lambda: machine.run(MAX_CYCLES, sim="fast")
        return prepare

    def replay(observers):
        """The block-engine replay of the trace into *observers*."""
        def prepare():
            built = observers()

            def run():
                replay_with_engine(path, built, engine="block")
                return built
            return run
        return prepare

    runs, ran = _interleaved(spans, workload.name, {
        "layer.bare": simulate(lambda machine: []),
        "layer.oracle": simulate(oracle),
        "layer.policies": simulate(policies),
        "layer.writer": simulate(writer),
    }, reps)
    # The replays read the trace the last writer run left.
    replays, replayed = _interleaved(spans, workload.name, {
        "layer.decode": replay(lambda: [BlockCounter()]),
        "layer.replay_oracle": replay(oracle),
        "layer.replay_policies": replay(policies),
    }, reps)
    bare, decode = runs["layer.bare"], replays["layer.decode"]
    return {
        "stats": ran["layer.bare"],
        "decoded_cycles": replayed["layer.decode"][0].cycles,
        "cpu.run_s": bare,
        "core.oracle_live_s": runs["layer.oracle"] - bare,
        "core.profilers_live_s": runs["layer.policies"] - bare,
        "tracefile.encode_s": runs["layer.writer"] - bare,
        "tracefile.trace_bytes": os.path.getsize(path),
        "tracefile.decode_s": decode,
        "fastpath.replay_oracle_s": replays["layer.replay_oracle"] - decode,
        "fastpath.replay_policies_s":
            replays["layer.replay_policies"] - decode,
    }


def run_traced_round(spec: Spec, seed: int, smoke: bool, scratch: str,
                     start: float, span_file: str) -> dict:
    """Set-up, untraced cold operations, traced cold/record/warm ones and
    a traced cold one on the other side of the pool, then the
    subtraction runs.  Every operation must produce the first one's
    digest."""
    spans = Spans()
    reports: list = []
    with spans.span("setup", op="setup") as setup:
        setup["start"] = start
        with spans.span("import"):
            import repro  # noqa: F401 - timed as part of set-up
            from repro.harness.experiment import default_profilers
        with instrumented(spans, reports):
            workloads = spec.build(seed, smoke)

    untraced = [timed_op(spec, workloads, smoke, "cold", None)
                for _ in range(1 if smoke else 3)]
    other = dataclasses.replace(spec, jobs=1 if spec.jobs > 1 else 2)
    cache = os.path.join(scratch, "cache")
    with instrumented(spans, reports):
        traced = {}
        for kind in ("cold", "record", "warm"):
            with spans.span("op", op=kind):
                traced[kind] = timed_op(spec, workloads, smoke, kind,
                                        None if kind == "cold" else cache)
        crossed = f"cold-jobs{other.jobs}"
        with spans.span("op", op=crossed):
            traced[crossed] = timed_op(other, workloads, smoke, "cold",
                                       None)

    # Operation label -> why it failed; each counts once.
    failures: Dict[str, str] = {}
    reference = untraced[0].get("digest")
    ops = {f"untraced cold {i}": op for i, op in enumerate(untraced)}
    ops.update((f"traced {label}", op) for label, op in traced.items())
    for label, op in ops.items():
        if op["error"] or op.get("digest") != reference:
            failures[label] = (op["error"]
                               or "digest differs from the first cold op")

    configs = default_profilers(PERIOD)
    layers = [layer_costs(spans, workload, configs,
                          1 if smoke else LAYER_REPS, scratch)
              for workload in workloads]
    outputs = untraced[0].get("outputs") or {}
    for workload, layer in zip(workloads, layers):
        if layer["decoded_cycles"] != layer["stats"].cycles:
            failures.setdefault("layers", (
                f"{workload.name}: decode saw {layer['decoded_cycles']} "
                f"cycles, the simulator {layer['stats'].cycles}"))
        want = outputs.get(workload.name, {})
        if (layer["stats"].cycles, layer["stats"].committed) != \
                (want.get("sim_cycles"), want.get("committed")):
            failures.setdefault(
                "layers", f"{workload.name}: bare run stats differ")

    def summed(name):
        return sum(layer[name] for layer in layers)

    def seconds(op):
        return op.get("seconds", float("nan"))

    cold_s = statistics.median(seconds(op) for op in untraced)
    serial, pooled = ((traced["cold"], traced[crossed]) if spec.jobs == 1
                      else (traced[crossed], traced["cold"]))
    build_s = spans.total("workloads.build", op="setup")
    self_check_s = spans.total("lint.self_check", op="setup")
    stepped = sum(layer["stats"].cycles - layer["stats"].fast_forwarded
                  for layer in layers)
    metrics = {
        "workloads.build_s": build_s,
        "lint.self_check_s": self_check_s,
        "lint.self_check_share": self_check_s / build_s,
        "kernel.boot_s": spans.total("kernel.boot", op="cold"),
        "cpu.run_s": summed("cpu.run_s"),
        "cpu.stepped_cycles": stepped,
        "cpu.ff_cycles": sum(layer["stats"].fast_forwarded
                             - layer["stats"].steady_state_cycles
                             for layer in layers),
        "cpu.memo_cycles": sum(layer["stats"].steady_state_cycles
                               for layer in layers),
        "cpu.us_per_stepped_cycle": 1e6 * summed("cpu.run_s") / stepped,
        "core.oracle_live_s": summed("core.oracle_live_s"),
        "core.oracle_share": summed("core.oracle_live_s") / cold_s,
        "core.profilers_live_s": summed("core.profilers_live_s"),
        "tracefile.encode_s": summed("tracefile.encode_s"),
        "tracefile.trace_bytes": summed("tracefile.trace_bytes"),
        "tracefile.decode_s": summed("tracefile.decode_s"),
        "fastpath.replay_oracle_s": summed("fastpath.replay_oracle_s"),
        "fastpath.replay_policies_s": summed("fastpath.replay_policies_s"),
        "simfast.lookup_s": spans.total("simfast.lookup", op="warm"),
        "simfast.commit_s": spans.total("simfast.commit", op="record"),
        "simfast.hit_ratio": traced["warm"].get("hits", 0) / len(workloads),
        "analysis.report_s": spans.total("analysis.report", op="cold"),
        "parallel.speedup_vs_serial": seconds(serial) / seconds(pooled),
        "parallel.failures": sum(len(report.failures)
                                 for report in reports),
        "parallel.retries": sum(max(0, n - 1) for report in reports
                                for n in report.attempts.values()),
        "bench.trace_overhead_pct":
            100.0 * (seconds(traced["cold"]) - cold_s) / cold_s,
    }
    errors = [f"{label}: {why}" for label, why in failures.items()]
    self_s = spans.self_times()
    with open(span_file, "w", encoding="utf-8") as handle:
        json.dump({"workload": spec.name, "seed": seed, "smoke": smoke,
                   "metrics": metrics, "self_s": self_s,
                   "errors": errors, "spans": spans.records}, handle,
                  indent=1)
        handle.write("\n")
    return {"metrics": metrics, "self_s": self_s,
            "attempted": len(ops) + 1, "failed": len(failures),
            "errors": errors}
