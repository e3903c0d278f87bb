"""Summaries, result files and the compare verdicts."""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

#: Reported beside the end-to-end metrics.  It is not declared in
#: ``BENCHMARK.json`` (which wants metrics that are never 0); it is
#: compared exactly: any increase is worse.
FAIL_RATIO = "fail_ratio"
FAIL_RATIO_UNIT = "failed/attempted"


def summarize(values: Sequence[float], unit: str) -> dict:
    """Median, interquartile range and sample count of *values*."""
    values = list(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr = q3 - q1
    else:
        iqr = 0.0
    return {"median": statistics.median(values), "iqr": iqr,
            "n": len(values), "unit": unit}


def render_summary(metrics: Dict[str, dict]) -> List[str]:
    lines = [f"  {'metric':<22} {'unit':<17} {'median':>13} "
             f"{'IQR':>12} {'n':>4}"]
    for name, entry in metrics.items():
        lines.append(f"  {name:<22} {entry['unit']:<17} "
                     f"{entry['median']:>13.6g} {entry['iqr']:>12.4g} "
                     f"{entry['n']:>4}")
    return lines


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """better / worse / unchanged / unresolved for B against A.

    The gap is B's median against A's, as a share of A's, signed so
    that a positive gap is worse.  When either side's IQR, as a share
    of its median, is wider than *bound* the comparison is
    "unresolved", unless the gap exceeds the bound plus that spread.
    """
    base = a["median"]
    if base == 0:
        gap = 0.0 if b["median"] == 0 else float("inf")
    else:
        gap = (b["median"] - base) / abs(base)
    if better == "higher":
        gap = -gap
    spread = max(_share(a), _share(b))
    if spread > bound and abs(gap) <= bound + spread:
        return "unresolved"
    if gap > bound:
        return "worse"
    if gap < -bound:
        return "better"
    return "unchanged"


def _share(entry: dict) -> float:
    median = abs(entry["median"])
    return entry["iqr"] / median if median else 0.0


def compare(a: dict, b: dict, end_to_end: List[dict]) -> tuple:
    """Rows of the comparison of result files *a* and *b*, and whether
    any row is worse."""
    rows = []
    worse = False
    declared = [(m["name"], m["better"], m["bound"]) for m in end_to_end]
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        ma = a["workloads"][workload]["metrics"]
        mb = b["workloads"][workload]["metrics"]
        for name, better, bound in declared + [(FAIL_RATIO, "lower", 0.0)]:
            if name not in ma or name not in mb:
                continue
            if name == FAIL_RATIO:
                result = ("worse" if mb[name]["median"]
                          > ma[name]["median"] else "unchanged")
            else:
                result = verdict(ma[name], mb[name], better, bound)
            worse |= result == "worse"
            ratio = (mb[name]["median"] / ma[name]["median"]
                     if ma[name]["median"] else float("nan"))
            rows.append((workload, name, ma[name], mb[name], ratio, result))
    return rows, worse


def render_compare(rows) -> List[str]:
    lines = [f"{'workload':<13} {'metric':<18} {'A median':>11} "
             f"{'A IQR':>9} {'B median':>11} {'B IQR':>9} {'B/A':>7}  "
             f"verdict"]
    for workload, name, a, b, ratio, result in rows:
        lines.append(f"{workload:<13} {name:<18} {a['median']:>11.5g} "
                     f"{a['iqr']:>9.3g} {b['median']:>11.5g} "
                     f"{b['iqr']:>9.3g} {ratio:>7.3f}  {result}")
    return lines
