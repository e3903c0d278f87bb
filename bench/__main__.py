"""``python -m bench run|trace|compare`` -- see ``bench/README.md``.

Run from the repository root.  The driver is one process: it starts one
fresh round process at a time (``bench/round.py``) and waits for it, so
the only other processes are the round's own pool workers and, between
operations on two workers, one calibration probe.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from . import report
from .round import REFERENCE_S
from .workloads import SPECS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "bench")
OUT_DIR = os.path.join(BENCH_DIR, "out")
EXPECTED = os.path.join(BENCH_DIR, "expected.json")

#: Rounds per workload: ``setup_s`` is a median over rounds.
ROUNDS = 3
#: Wall-clock cap of one workload, rounds included: a single-workload
#: invocation must end within 180 s.  A round still running at the cap
#: is killed, and fails.
WORKLOAD_DEADLINE = 165.0


class BenchError(Exception):
    """The benchmark could not run at all: no result is printed."""


def load_config() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_expected(smoke: bool) -> dict:
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)["smoke" if smoke else "default"]


def spawn_round(args: dict, timeout: float) -> Tuple[Optional[dict], str]:
    """Run one round process to completion; (result, "") or (None, why).

    The round gets its own session so that on a timeout the whole
    process group (the round and its pool workers) is killed.
    """
    src = os.path.join(ROOT, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "bench.round", json.dumps(args)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        # Not yet reaped, so the group id still names the round's group.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, f"round timed out after {timeout:.0f} s"
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(err.strip().splitlines()[-6:])
        return None, f"round exited with {proc.returncode}:\n{tail}"
    return json.loads(lines[-1]), ""


def measure(name: str, seed: int, seconds: float, smoke: bool,
            expected: Optional[dict], config: dict) -> dict:
    """Run ``ROUNDS`` rounds (one with *smoke*) of workload *name*, each
    until its share of *seconds* is up, and check every operation.

    Every time is a wall time scaled to an uncontended host: multiplied
    by ``REFERENCE_S`` over the calibration loop's time around it (see
    :func:`bench.round.calibration_s`).

    An operation fails when it raised, broke the cache rule of its kind,
    produced a digest other than the most common one of the run, or
    outputs other than *expected* (``None`` skips that check).  A round
    that dies fails the operations of a one-cycle round, and ends the
    run.
    """
    spec = SPECS[name]
    os.makedirs(OUT_DIR, exist_ok=True)
    rounds: List[dict] = []
    problems: List[str] = []
    attempted = failed = 0
    start = time.monotonic()
    count = 1 if smoke else ROUNDS
    for index in range(count):
        args = {"workload": name, "seed": seed, "smoke": smoke,
                "trace": False, "scratch": OUT_DIR, "span_file": None,
                "until": start + seconds * (index + 1) / count}
        result, why = spawn_round(
            args, start + WORKLOAD_DEADLINE - time.monotonic())
        if result is None:
            planned = 3 if smoke else 3 + spec.warm_reps
            attempted += planned
            failed += planned
            problems.append(why)
            break
        rounds.append(result)

    ops = [op for r in rounds for op in r["ops"]]
    attempted += len(ops)
    digests = collections.Counter(op["digest"] for op in ops
                                  if op.get("digest"))
    reference = digests.most_common(1)[0][0] if digests else None
    want = None if expected is None else expected[name]
    for op in ops:
        why = op["error"]
        if not why and op["digest"] != reference:
            why = f"{op['kind']} digest differs from the run's other ops"
        if not why and want is not None and op["outputs"] != want:
            why = f"{op['kind']} outputs differ from expected.json"
        if why:
            failed += 1
            problems.append(why)

    # Timed ops, each with its wall seconds scaled to an uncontended
    # host; the untimed warm-up has no "host_s".
    timed = [(op, op["seconds"] * REFERENCE_S / op["host_s"])
             for op in ops if "seconds" in op and "host_s" in op]

    def times(kind):
        return [seconds for op, seconds in timed if op["kind"] == kind]

    samples = {
        "setup_s": [r["setup_s"] * REFERENCE_S / r["setup_host_s"]
                    for r in rounds],
        "cold_s": times("cold"),
        "record_s": times("record"),
        "warm_s": times("warm"),
        "sim_kcycles_per_s": [op["cycles"] / seconds / 1e3
                              for op, seconds in timed
                              if op["kind"] == "cold" and "cycles" in op],
        "peak_rss_mb": [r["peak_rss_mb"] for r in rounds],
        "tip_error_pct": [op["tip_error_pct"] for op in ops
                          if "tip_error_pct" in op],
    }
    metrics = {m["name"]: report.summarize(samples[m["name"]], m["unit"])
               for m in config["end_to_end"] if samples[m["name"]]}
    metrics[report.FAIL_RATIO] = report.summarize(
        [failed / attempted], report.FAIL_RATIO_UNIT)
    host = [op["host_s"] for op, _ in timed]
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "rounds": len(rounds), "seconds": time.monotonic() - start,
            "host_slowdown": (statistics.median(host) / REFERENCE_S
                              if host else float("nan")),
            "problems": problems,
            "outputs": next((op["outputs"] for op in ops
                             if op.get("digest") == reference), None)}


def trace(name: str, seed: int, smoke: bool) -> dict:
    """One traced round of workload *name*; spans go to
    ``bench/out/trace-<name>[-smoke].json``.  A round that dies counts
    as one failed operation and yields no metrics."""
    os.makedirs(OUT_DIR, exist_ok=True)
    suffix = "-smoke" if smoke else ""
    span_file = os.path.join(OUT_DIR, f"trace-{name}{suffix}.json")
    args = {"workload": name, "seed": seed, "smoke": smoke, "trace": True,
            "scratch": OUT_DIR, "span_file": span_file}
    result, why = spawn_round(args, WORKLOAD_DEADLINE)
    if result is None:
        result = {"metrics": {}, "self_s": {}, "attempted": 1,
                  "failed": 1, "errors": [why]}
    result["span_file"] = os.path.relpath(span_file, ROOT)
    return result


def _workloads(args, config) -> List[str]:
    names = args.workloads or [w["name"] for w in config["workloads"]]
    unknown = [n for n in names if n not in SPECS]
    if unknown:
        raise BenchError(f"unknown workload(s) {unknown}; "
                         f"choose from {sorted(SPECS)}")
    return names


def _result_line(named: Dict[str, Dict[str, dict]], declared: List[dict],
                 attempted: int, failed: int) -> str:
    """The JSON summary line; metric names carry a ``<workload>.``
    prefix when more than one workload ran.  A metric without samples,
    which only a failed run has, is left out."""
    metrics = {}
    for workload, values in named.items():
        prefix = f"{workload}." if len(named) > 1 else ""
        for metric in declared:
            if metric["name"] in values:
                metrics[prefix + metric["name"]] = {
                    "value": values[metric["name"]],
                    "unit": metric["unit"]}
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def cmd_run(args, config) -> int:
    names = _workloads(args, config)
    seconds = 0 if args.smoke else (args.seconds or config["run_seconds"])
    expected = load_expected(args.smoke)
    measured = {}
    for name in names:
        result = measure(name, args.seed, seconds, args.smoke, expected,
                         config)
        measured[name] = result
        print(f"workload {name}: seed {args.seed}, {result['rounds']} "
              f"round(s), {result['seconds']:.1f} s, "
              f"{result['failed']}/{result['attempted']} failed, "
              f"host slowdown {result['host_slowdown']:.2f}")
        print("\n".join(report.render_summary(result["metrics"])))
        for why in result["problems"]:
            print(f"  FAILED {why}", file=sys.stderr)
    if args.output:
        write_results(args.output, measured, args, seconds)
    attempted = sum(r["attempted"] for r in measured.values())
    failed = sum(r["failed"] for r in measured.values())
    missing = [(n, m["name"]) for n in names for m in config["end_to_end"]
               if m["name"] not in measured[n]["metrics"]]
    if missing and not failed:
        raise BenchError(f"no samples for {missing}")
    print(_result_line(
        {n: {k: v["median"] for k, v in r["metrics"].items()}
         for n, r in measured.items()},
        config["end_to_end"], attempted, failed))
    return 1 if failed else 0


def cmd_trace(args, config) -> int:
    names = _workloads(args, config)
    traced = {}
    for name in names:
        result = trace(name, args.seed, args.smoke)
        traced[name] = result
        print(f"workload {name}: traced round, spans in "
              f"{result['span_file']}")
        units = {m["name"]: m["unit"] for m in config["per_layer"]}
        for metric, value in result["metrics"].items():
            print(f"  {metric:<28} {units.get(metric, ''):<8} "
                  f"{value:>14.6g}")
        print("  self time by span:")
        ranked = sorted(result["self_s"].items(), key=lambda kv: -kv[1])
        for span, value in ranked[:12]:
            print(f"    {span:<26} {value:>10.4f} s")
        for why in result["errors"]:
            print(f"  FAILED {why}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in traced.values())
    failed = sum(r["failed"] for r in traced.values())
    missing = [(n, m["name"]) for n in names for m in config["per_layer"]
               if m["name"] not in traced[n]["metrics"]]
    if missing and not failed:
        raise BenchError(f"trace did not produce {missing}")
    print(_result_line({n: r["metrics"] for n, r in traced.items()},
                       config["per_layer"], attempted, failed))
    return 1 if failed else 0


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def write_results(path: str, measured: dict, args, seconds) -> None:
    """The compact, committable result file of one set."""
    results = {
        "label": os.path.splitext(os.path.basename(path))[0],
        "claim": None,
        "meta": {"python": platform.python_version(),
                 "platform": platform.platform(),
                 "nproc": os.cpu_count(), "git_sha": _git_sha(),
                 "seed": args.seed, "seconds": seconds,
                 "smoke": args.smoke},
        "workloads": {name: {"attempted": r["attempted"],
                             "failed": r["failed"],
                             "rounds": r["rounds"],
                             "host_slowdown": r["host_slowdown"],
                             "metrics": r["metrics"]}
                      for name, r in measured.items()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
        fh.write("\n")


def cmd_compare(args, config) -> int:
    with open(args.a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(args.b, encoding="utf-8") as fh:
        b = json.load(fh)
    rows, worse = report.compare(a, b, config["end_to_end"])
    print(f"A = {args.a}, B = {args.b}")
    print("\n".join(report.render_compare(rows)))
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in ("run", "trace"):
        p = sub.add_parser(command)
        p.add_argument("--workload", dest="workloads", nargs="+",
                       action="extend",
                       help="workloads to run (default: all)")
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--smoke", action="store_true",
                       help="tiny scales, one round of one op each")
    run = sub.choices["run"]
    run.add_argument("--seconds", type=float, default=None,
                     help="measuring time per workload (default: "
                          "run_seconds in BENCHMARK.json)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1: run the traced round instead")
    run.add_argument("-o", "--output", default=None,
                     help="write compact results, e.g. "
                          "bench/results/<label>.json")
    compare = sub.add_parser("compare")
    compare.add_argument("a")
    compare.add_argument("b")
    args = parser.parse_args(argv)

    try:
        if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
            raise BenchError(f"no src/repro under {ROOT}: run from a "
                             f"checkout of the repository")
        config = load_config()
        if args.command == "compare":
            return cmd_compare(args, config)
        if args.command == "trace" or args.trace:
            return cmd_trace(args, config)
        return cmd_run(args, config)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
