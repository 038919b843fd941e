"""Latency-breakdown helpers for the Figure 6 style decompositions.

Each completed L2 miss carries per-category durations (stamped by the
responder and the home directory).  This module turns the raw histogram
snapshot of a run into the stacked-bar rows the paper plots:

* Figure 6b — requests served by other caches: for SCORPIO the stack is
  broadcast network + ordering + sharer access + response network; for the
  directory protocols it is request-to-dir + dir access + dir-to-sharer
  (or broadcast) + sharer access + response network.
* Figure 6c — requests served by the directory/memory: memory access
  replaces the sharer terms.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.api import RunResult

# Category order used when printing stacked rows (superset across
# protocols; missing categories are zero).
CACHE_SERVED_CATEGORIES: List[str] = [
    "net_req",        # requester -> home directory (directory protocols)
    "dir_access",     # directory cache access (directory protocols)
    "dir_to_sharer",  # home -> owner forward (LPD)
    "bcast_net",      # broadcast delivery (SCORPIO, HT snoops)
    "ordering",       # wait for global order at the owner (SCORPIO)
    "queue_wait",     # home-node input queueing (directory protocols)
    "sharer_access",  # owner L2 access
    "net_resp",       # data back to the requester
]
MEMORY_SERVED_CATEGORIES: List[str] = [
    "net_req", "dir_access", "dir_to_mem", "bcast_net", "ordering",
    "queue_wait", "mem_access", "net_resp",
]


def breakdown_row(result: RunResult, served: str) -> Dict[str, float]:
    """Mean cycles per category for requests served by *served*
    ("cache" or "memory")."""
    raw = result.breakdown(served)
    categories = (CACHE_SERVED_CATEGORIES if served == "cache"
                  else MEMORY_SERVED_CATEGORIES)
    return {cat: raw.get(cat, 0.0) for cat in categories}


def total_latency(row: Dict[str, float]) -> float:
    return sum(row.values())


def format_stack(rows: Dict[str, Dict[str, float]], served: str) -> str:
    """Pretty-print {config_name: row} as the paper's stacked bars."""
    categories = (CACHE_SERVED_CATEGORIES if served == "cache"
                  else MEMORY_SERVED_CATEGORIES)
    lines = []
    header = f"{'config':<14}" + "".join(f"{cat:>14}" for cat in categories) \
        + f"{'total':>10}"
    lines.append(header)
    for name, row in rows.items():
        cells = "".join(f"{row.get(cat, 0.0):>14.1f}" for cat in categories)
        lines.append(f"{name:<14}{cells}{total_latency(row):>10.1f}")
    return "\n".join(lines)


def served_fraction(result: RunResult) -> Dict[str, float]:
    """Fraction of misses served by caches vs. memory (the paper reports
    ~90 % cache-served for these workloads)."""
    stats = result.stats
    cache = stats.get("l2.miss_latency.cache.count", 0.0)
    memory = stats.get("l2.miss_latency.memory.count", 0.0)
    dir_ = stats.get("l2.miss_latency.directory.count", 0.0)
    total = cache + memory + dir_
    if total == 0:
        return {"cache": 0.0, "memory": 0.0, "directory": 0.0}
    return {"cache": cache / total, "memory": memory / total,
            "directory": dir_ / total}
