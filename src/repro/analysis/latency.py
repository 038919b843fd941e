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
