"""``perf/run.py --compare A.json B.json``: verdicts between two result
files written by ``perf/run.py``, A being the base.

Each workload x end-to-end metric gets one verdict, from the bound that
``BENCHMARK.json`` fixes for the metric:

* ``regressed``  — B's median is worse than A's by more than the bound,
  and the spread does not explain it;
* ``improved``   — each file has ``MIN_RUNS_TO_IMPROVE`` runs or more,
  every run of B reads better than every run of A, and the medians
  differ by more than the distance between A's quartiles;
* ``unresolved`` — the spread between runs is wider than the bound and
  the runs of A and B overlap, so neither of the above can be said;
* ``unchanged``  — otherwise.

Simulated numbers are not timings: digests and every per-layer metric in
an exact unit must be equal, or the *model* changed.  ``<layer>.calls``
repeat exactly for one version of the code; between two versions a
difference is reported, and is not by itself a failure.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Tuple

# Units of per-layer metrics that are simulated or counted, never timed:
# two runs on the same input must agree to the last digit.
EXACT_UNITS = frozenset({"count", "cycles", "1/kcycle", "ratio", "bytes"})


# With three runs a side, all of B beat all of A by chance once in
# twenty comparisons of unchanged code; with five, once in 252.
MIN_RUNS_TO_IMPROVE = 5


def quartile_distance(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    first, _median, third = statistics.quantiles(values, n=4)
    return third - first


def spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    return quartile_distance(values) / statistics.median(values)


def verdict(base: List[float], new: List[float], better: str,
            bound: float) -> Tuple[str, float]:
    """``(verdict, ratio)`` for one metric; ratio is new median over
    base median."""
    base_median = statistics.median(base)
    new_median = statistics.median(new)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (new_median - base_median) / base_median
    if better == "lower":
        all_better, all_worse = max(new) < min(base), min(new) > max(base)
    else:
        all_better, all_worse = min(new) > max(base), max(new) < min(base)
    wide = max(spread(base), spread(new)) > bound
    ratio = new_median / base_median
    if worse_by > bound:
        return ("unresolved" if wide and not all_worse else "regressed",
                ratio)
    if all_better and min(len(base), len(new)) >= MIN_RUNS_TO_IMPROVE \
            and abs(new_median - base_median) > quartile_distance(base):
        return "improved", ratio
    if wide and not (all_better or all_worse):
        return "unresolved", ratio
    return "unchanged", ratio


def compare(base: Dict[str, Any], new: Dict[str, Any],
            declaration: Dict[str, Any]) -> Tuple[List[str], bool]:
    """Report lines and whether the comparison passes (no ``regressed``,
    no rise in ``failed_frac``, no exact number that differs)."""
    lines: List[str] = []
    ok = True
    exact_names = {metric["name"] for metric in declaration["per_layer"]
                   if metric["unit"] in EXACT_UNITS}
    for name, new_row in new["workloads"].items():
        base_row = base["workloads"].get(name)
        if base_row is None:
            lines.append(f"{name}: not in the base file, skipped")
            continue
        for metric in declaration["end_to_end"]:
            key = metric["name"]
            if key not in base_row["end_to_end"] \
                    or key not in new_row["end_to_end"]:
                continue
            base_values = base_row["end_to_end"][key]["values"]
            new_values = new_row["end_to_end"][key]["values"]
            what, ratio = verdict(base_values, new_values,
                                  metric["better"], metric["bound"])
            ok = ok and what != "regressed"
            lines.append(
                f"{name:<18} {key:<16} {what:<10} "
                f"{statistics.median(new_values):.6g} / "
                f"{statistics.median(base_values):.6g} {metric['unit']} "
                f"= {ratio:.3f} (bound {metric['bound']:.2f}, "
                f"{metric['better']} is better, "
                f"n={len(new_values)}/{len(base_values)})")
        if new_row["failed_frac"] > base_row["failed_frac"]:
            ok = False
            lines.append(f"{name:<18} failed_frac rose: "
                         f"{new_row['failed_frac']} / "
                         f"{base_row['failed_frac']}")
        if new_row["digest"] != base_row["digest"]:
            ok = False
            lines.append(f"{name:<18} digest differs: {new_row['digest']} "
                         f"/ {base_row['digest']}")
        base_traced = base_row.get("traced", {}).get("metrics", {})
        new_traced = new_row.get("traced", {}).get("metrics", {})
        differing = calls_differing = 0
        for key in sorted(set(base_traced) & set(new_traced)):
            if new_traced[key]["value"] == base_traced[key]["value"]:
                continue
            if key in exact_names:
                ok = False
                differing += 1
            elif key.endswith(".calls"):
                calls_differing += 1
            else:
                continue
            lines.append(f"{name:<18} {key} differs: "
                         f"{new_traced[key]['value']} / "
                         f"{base_traced[key]['value']}")
        if base_traced and new_traced:
            lines.append(f"{name:<18} exact per-layer metrics: "
                         f"{differing} differ; <layer>.calls: "
                         f"{calls_differing} differ")
    return lines, ok
