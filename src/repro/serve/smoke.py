"""CI smoke test: ``python -m repro.serve.smoke``.

Starts a real server (background thread, ephemeral port, temp cache),
fires N concurrent clients at it -- including a duplicate submission --
and asserts the service contract end-to-end:

* exactly one simulation per distinct simulation key;
* the duplicate coalesces onto the first job (same job id);
* every client's report is byte-identical to a direct in-process
  ``run_experiment`` run of the same spec;
* the /stats counters agree with what the clients observed.

Writes the final ``/stats`` snapshot as JSON (CI uploads it as an
artifact).  Exit status 0 on success, 1 on any violated assertion.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import threading
from typing import List, Optional

from .client import ServeClient
from .jobs import JobSpec, execute_job
from .testing import running_server

#: Submissions fired concurrently: benchmark names, with one duplicate.
DEFAULT_CLIENTS = ("mcf", "lbm", "mcf")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.serve.smoke",
        description="concurrent-client smoke test of the job server")
    parser.add_argument("benchmarks", nargs="*",
                        default=list(DEFAULT_CLIENTS),
                        help="one submission per name; repeats test "
                             "dedup (default: mcf lbm mcf)")
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--period", type=int, default=97)
    parser.add_argument("--stats-out", default="SERVE_stats.json",
                        help="write the final /stats snapshot here")
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="per-client wait budget (seconds)")
    args = parser.parse_args(argv)
    names = list(args.benchmarks) or list(DEFAULT_CLIENTS)

    specs = [JobSpec.for_benchmark(name, scale=args.scale,
                                   period=args.period)
             for name in names]
    failures: List[str] = []

    with tempfile.TemporaryDirectory(prefix="repro-serve-") as cache:
        with running_server(cache=cache, workers=2) as handle:
            print(f"[smoke] serving on {handle.address_str} "
                  f"(cache {cache})", flush=True)
            outputs: List[Optional[dict]] = [None] * len(specs)
            errors: List[Optional[str]] = [None] * len(specs)

            def client_run(index: int) -> None:
                client: ServeClient = handle.client(
                    timeout=args.timeout)
                try:
                    job, coalesced = client.submit(specs[index])
                    info = client.wait(job, timeout=args.timeout)
                    outputs[index] = {"job": job,
                                      "coalesced": coalesced,
                                      "report": info["report"]}
                except Exception as exc:  # surfaced as a failure
                    errors[index] = f"{type(exc).__name__}: {exc}"

            threads = [threading.Thread(target=client_run, args=(i,))
                       for i in range(len(specs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(args.timeout)

            for index, error in enumerate(errors):
                if error is not None:
                    failures.append(
                        f"client {index} ({names[index]}): {error}")
            stats = handle.client().stats()
            drained = handle.shutdown(drain=True)

    if any(output is None for output in outputs) and not failures:
        failures.append("a client never finished")

    if not failures:
        # Duplicate submissions coalesce onto one job id.
        by_name = {}
        for name, output in zip(names, outputs):
            by_name.setdefault(name, []).append(output)
        for name, group in by_name.items():
            jobs = {entry["job"] for entry in group}
            if len(jobs) != 1:
                failures.append(f"{name}: duplicate submissions got "
                                f"distinct jobs {sorted(jobs)}")
            reports = {json.dumps(entry["report"], sort_keys=True)
                       for entry in group}
            if len(reports) != 1:
                failures.append(
                    f"{name}: duplicate clients saw different reports")

        # Exactly one simulation per distinct key, and reports are
        # byte-identical to the direct (serverless) path.
        distinct = len(by_name)
        sims = stats["cache"]["simulations"]
        if sims > distinct:
            failures.append(f"{sims} simulations for {distinct} "
                            f"distinct submissions")
        expected_coalesced = len(names) - distinct
        if stats["dedup"]["coalesced"] < expected_coalesced:
            failures.append(
                f"expected >= {expected_coalesced} coalesced "
                f"submissions, /stats says "
                f"{stats['dedup']['coalesced']}")
        for name in by_name:
            spec = specs[names.index(name)]
            direct = execute_job(spec)["report"]
            served = by_name[name][0]["report"]
            served = dict(served, cached=direct["cached"])
            if json.dumps(served, sort_keys=True) != \
                    json.dumps(direct, sort_keys=True):
                failures.append(f"{name}: served report differs from "
                                f"the direct run_workload path")

    with open(args.stats_out, "w", encoding="utf-8") as out:
        json.dump({"stats": stats, "drained": drained,
                   "clients": names, "failures": failures},
                  out, indent=2, sort_keys=True)
        out.write("\n")
    print(f"[smoke] wrote {args.stats_out}", flush=True)

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"[smoke] OK: {len(names)} clients, "
          f"{stats['cache']['simulations']} simulation(s), "
          f"{stats['dedup']['coalesced']} coalesced", flush=True)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
