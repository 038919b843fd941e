"""Synchronization-intensive workloads: lock handoff and barrier phases.

The chip's verification suite exercises "lock and barrier instructions"
(Sec. 4.3), and lock handoff is exactly the traffic pattern where an
ordered broadcast fabric shines: the line holding the lock migrates
core-to-core, so every acquisition is a cache-to-cache transfer — the
case Figure 6b shows SCORPIO winning by avoiding directory indirection.

Traces model synchronization with the 'A' (atomic read-modify-write)
operation:

* :func:`lock_contention_traces` — every core repeatedly acquires one
  hot lock ('A'), performs a short critical section on shared data, and
  releases (a plain write to the lock line).
* :func:`barrier_traces` — alternating compute phases on private lines
  and 'A' increments of a barrier counter line, the classic
  sense-reversing barrier's coherence footprint.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.cpu.trace import Trace, TraceOp

LINE = 32
LOCK_BASE = 0x6000_0000
DATA_BASE = 0x6100_0000
PRIVATE_BASE = 0x6800_0000


def lock_contention_traces(n_cores: int,
                           acquisitions_per_core: int = 4,
                           critical_ops: int = 3,
                           shared_lines: int = 4,
                           think: int = 5,
                           lock_addr: int = LOCK_BASE,
                           seed: int = 0) -> List[Trace]:
    """Every core loops: acquire -> critical section -> release.

    The critical section touches ``critical_ops`` operations over
    ``shared_lines`` protected lines (reads and one update), so both the
    lock line and the protected data migrate between cores.
    """
    if n_cores <= 0 or acquisitions_per_core < 0:
        raise ValueError("need cores and a non-negative acquisition count")
    if critical_ops < 1 or shared_lines < 1:
        raise ValueError("critical section needs at least one op and line")
    rng = random.Random(seed)
    traces = []
    for core in range(n_cores):
        ops: List[TraceOp] = []
        for _ in range(acquisitions_per_core):
            # Stagger the first grab so cores don't all collide at t=0.
            gap = think + rng.randrange(think + 1)
            ops.append(TraceOp("A", lock_addr, gap))
            for position in range(critical_ops):
                data = DATA_BASE + rng.randrange(shared_lines) * LINE
                kind = "W" if position == critical_ops - 1 else "R"
                ops.append(TraceOp(kind, data, 1))
            # Release: a plain store to the lock line.
            ops.append(TraceOp("W", lock_addr, 1))
        traces.append(Trace(ops))
    return traces


def barrier_traces(n_cores: int,
                   phases: int = 3,
                   compute_ops: int = 5,
                   private_lines: int = 16,
                   think: int = 4,
                   barrier_addr: Optional[int] = None,
                   seed: int = 0) -> List[Trace]:
    """Alternate private compute phases with barrier arrivals.

    Each phase: ``compute_ops`` reads/writes over the core's private
    lines, then one 'A' on the shared barrier counter.  A fresh barrier
    line per phase mirrors sense reversal (no stale counter reuse).
    """
    if n_cores <= 0 or phases < 1:
        raise ValueError("need cores and at least one phase")
    if compute_ops < 0 or private_lines < 1:
        raise ValueError("invalid compute phase shape")
    rng = random.Random(seed)
    base = barrier_addr if barrier_addr is not None else LOCK_BASE
    traces = []
    for core in range(n_cores):
        ops: List[TraceOp] = []
        private = PRIVATE_BASE + core * private_lines * LINE
        for phase in range(phases):
            for _ in range(compute_ops):
                addr = private + rng.randrange(private_lines) * LINE
                kind = "W" if rng.random() < 0.4 else "R"
                ops.append(TraceOp(kind, addr, think))
            ops.append(TraceOp("A", base + phase * LINE, think))
        traces.append(Trace(ops))
    return traces
