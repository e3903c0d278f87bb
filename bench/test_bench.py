"""Smoke tests of the benchmark: ``PYTHONPATH=src python -m pytest bench``.

The ``--smoke`` runs use tiny scales and one round of one operation of
each kind, so the whole file takes well under a minute and a half.
"""

from __future__ import annotations

import copy
import json
import os
import re
import subprocess
import sys

import pytest

from bench import report
from bench.__main__ import ROOT, load_config, load_expected, main, measure
from bench.round import calibration_s
from bench.trace import Spans
from bench.workloads import SPECS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
CONFIG = load_config()


def _bench(*args):
    proc = subprocess.run([sys.executable, "-m", "bench", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc, lines, json.loads(lines[-1])


def test_config_schema():
    assert set(CONFIG) == {"command", "paths", "run_seconds", "workloads",
                           "end_to_end", "per_layer"}
    assert 1 <= len(CONFIG["end_to_end"]) <= 16
    assert 1 <= len(CONFIG["per_layer"]) <= 128
    assert 2 <= len(CONFIG["workloads"]) <= 8
    names = [w["name"] for w in CONFIG["workloads"]]
    names += [m["name"] for m in CONFIG["end_to_end"] + CONFIG["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in CONFIG["end_to_end"] + CONFIG["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in CONFIG["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert {w["name"] for w in CONFIG["workloads"]} == set(SPECS)
    assert all(len(w["why"]) <= 200 for w in CONFIG["workloads"])


def test_smoke_run_prints_every_metric():
    proc, lines, result = _bench("run", "--smoke")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 3 * len(SPECS)
    for workload in SPECS:
        for metric in CONFIG["end_to_end"]:
            entry = result["metrics"][f"{workload}.{metric['name']}"]
            assert entry["unit"] == metric["unit"]
            assert entry["value"] > 0
    for metric in CONFIG["end_to_end"] + [{"name": report.FAIL_RATIO,
                                           "unit": report.FAIL_RATIO_UNIT}]:
        rows = [line.split() for line in lines
                if line.split()[:1] == [metric["name"]]]
        assert len(rows) == len(SPECS), metric
        assert all(row[1] == metric["unit"] for row in rows)
    fail_rows = [line.split() for line in lines
                 if line.split()[:1] == [report.FAIL_RATIO]]
    assert all(float(row[2]) == 0 for row in fail_rows)


def test_smoke_trace_emits_every_layer_metric():
    proc, lines, result = _bench("trace", "--smoke")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0
    for workload in SPECS:
        for metric in CONFIG["per_layer"]:
            entry = result["metrics"][f"{workload}.{metric['name']}"]
            assert entry["unit"] == metric["unit"]
        assert result["metrics"][f"{workload}.simfast.hit_ratio"][
            "value"] == 1.0
        path = os.path.join(ROOT, "bench", "out",
                            f"trace-{workload}-smoke.json")
        with open(path, encoding="utf-8") as fh:
            dump = json.load(fh)
        assert set(dump["metrics"]) >= {m["name"]
                                        for m in CONFIG["per_layer"]}
        assert not dump["errors"]
        ops = {span["op"] for span in dump["spans"]}
        assert {"setup", "cold", "record", "warm", "layers"} <= ops
        cold = {span["name"] for span in dump["spans"]
                if span["op"] == "cold"}
        assert {"kernel.boot", "cpu.run", "analysis.report"} <= cold
        # Pool workers ship their spans back to the round.
        assert ("parallel.worker" in cold) == (SPECS[workload].jobs > 1)


def test_dead_round_fails_every_planned_op(monkeypatch, capsys):
    import bench.__main__ as cli
    monkeypatch.setattr(cli, "spawn_round",
                        lambda args, timeout: (None, "round died"))
    assert cli.main(["run", "--smoke", "--workload", "mcf"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 3


def test_expected_gate_fails_every_op_on_a_corrupted_value():
    expected = load_expected(smoke=True)
    good = measure("mcf", 42, 0, True, expected, CONFIG)
    assert good["failed"] == 0
    corrupted = copy.deepcopy(expected)
    corrupted["mcf"]["mcf"]["sim_cycles"] += 1
    bad = measure("mcf", 42, 0, True, corrupted, CONFIG)
    assert bad["metrics"][report.FAIL_RATIO]["median"] == 1.0


def _results(metrics):
    return {"workloads": {"w": {"metrics": {
        name: {"median": median, "iqr": iqr, "n": 6, "unit": "s"}
        for name, (median, iqr) in metrics.items()}}}}


@pytest.mark.parametrize("b, verdict", [
    ((1.00, 0.01), "unchanged"),
    ((1.20, 0.01), "worse"),
    ((0.80, 0.01), "better"),
    ((1.05, 0.30), "unresolved"),
    ((2.00, 0.30), "worse"),
])
def test_compare_verdicts(b, verdict):
    declared = [{"name": "cold_s", "unit": "s", "better": "lower",
                 "bound": 0.1}]
    a = _results({"cold_s": (1.0, 0.01)})
    rows, worse = report.compare(a, _results({"cold_s": b}), declared)
    assert [row[-1] for row in rows] == [verdict]
    assert worse == (verdict == "worse")


def test_compare_exit_code(tmp_path):
    a = _results({"cold_s": (1.0, 0.01), report.FAIL_RATIO: (0.0, 0.0)})
    b = _results({"cold_s": (1.0, 0.01), report.FAIL_RATIO: (0.5, 0.0)})
    paths = []
    for name, data in (("a", a), ("b", b)):
        paths.append(str(tmp_path / f"{name}.json"))
        with open(paths[-1], "w", encoding="utf-8") as fh:
            json.dump(data, fh)
    assert main(["compare", paths[0], paths[0]]) == 0
    assert main(["compare", *paths]) == 1


def test_calibration_reaps_its_probe_processes():
    assert calibration_s(2) > 0
    with pytest.raises(ChildProcessError):
        os.wait()


def test_self_time_subtracts_children():
    spans = Spans()
    with spans.span("outer", op="x"):
        with spans.span("inner"):
            sum(range(10000))
    outer, inner = spans.records
    assert inner["parent"] == outer["id"] and inner["op"] == "x"
    self_s = spans.self_times()
    assert self_s["outer"] == pytest.approx(
        Spans.duration(outer) - Spans.duration(inner))
    assert self_s["inner"] == pytest.approx(Spans.duration(inner))


def test_adopted_worker_spans_nest_and_overlap():
    spans = Spans()
    with spans.span("run_jobs", op="cold") as pool:
        pass
    # Two workers forked while run_jobs (id 0) was open, so both
    # numbered their spans from 1 and overlap in time.
    for offset in (0.0, 0.5):
        spans.adopt([
            {"id": 1, "name": "worker", "parent": 0, "op": "cold",
             "start": pool["start"] + offset, "end": pool["start"]
             + offset + 1.0},
            {"id": 2, "name": "run", "parent": 1, "op": "cold",
             "start": pool["start"] + offset, "end": pool["start"]
             + offset + 0.25},
        ])
    pool["end"] = pool["start"] + 2.0
    assert [r["id"] for r in spans.records] == [0, 1, 2, 3, 4]
    assert [r["parent"] for r in spans.records] == [None, 0, 1, 0, 3]
    self_s = spans.self_times()
    assert self_s["run_jobs"] == pytest.approx(0.5)
    assert self_s["worker"] == pytest.approx(1.5)
