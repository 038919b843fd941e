"""Trace-injector core model with the chip's AHB constraints.

The Freescale e200 core talks to the L2 through AMBA AHB, which permits a
single outstanding transaction per port; with split I/D ports that caps
each core at **two outstanding misses** (Sec. 4.1).  The injector model
honours that cap, issues operations in trace order, and separates them by
the trace's think times.

An optional write-through L1 filters traffic before it reaches the L2 and
is invalidated through the external invalidation port when the L2 loses a
line (inclusion).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.cache.l1 import L1Cache
from repro.coherence.l2_controller import L2Controller
from repro.core.serialize import SerializableConfig
from repro.cpu.trace import Trace, TraceOp
from repro.sim.engine import Clocked, EventWheel
from repro.sim.stats import StatsRegistry


@dataclass
class CoreConfig(SerializableConfig):
    max_outstanding: int = 2     # AHB: one D-side + one I-side transaction
    l1_enabled: bool = True
    l1_latency: int = 2


class TraceCore(Clocked):
    """One tile's core: replays a trace against the cache hierarchy."""

    def __init__(self, node: int, l2: L2Controller, trace: Trace,
                 line_size: int, config: Optional[CoreConfig] = None,
                 stats: Optional[StatsRegistry] = None) -> None:
        self.node = node
        self.l2 = l2
        self.trace = trace
        self.config = config or CoreConfig()
        self.stats = stats or StatsRegistry()
        self.l1: Optional[L1Cache] = (
            L1Cache(line_size, hit_latency=self.config.l1_latency,
                    stats=self.stats, name=f"core{node}.l1d")
            if self.config.l1_enabled else None)
        self._pc = 0                       # next trace index
        self._n_ops = len(trace)           # the trace never changes
        # The first operation's think time offsets it from cycle 0, so a
        # trace can schedule its opening access deterministically.
        self._next_issue_cycle = trace[0].think if self._n_ops else 0
        self._outstanding: Dict[int, TraceOp] = {}
        self._token_seq = 0
        # due cycle -> (bound_method, args): L1 hits retiring then.
        self._timers = EventWheel()
        self.completed_ops = 0
        self.finish_cycle: Optional[int] = None
        l2.set_completion_callback(self._on_l2_complete)
        if self.l1 is not None:
            l2.set_l1_invalidate(self.l1.invalidate)

    # ------------------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.finish_cycle is not None

    def step(self, cycle: int) -> None:
        if self._timers.min_due <= cycle:
            for fn, args in self._timers.pop_due(cycle):
                fn(*args)
        if self.finish_cycle is not None:
            self.idle_until(None)
            return
        if self._pc >= self._n_ops:
            if not self._outstanding and not self._timers:
                self.finish_cycle = cycle
                self.idle_until(None)
            else:
                # Drained the trace; only completions remain.  L2
                # completions wake us via _on_l2_complete, L1 hits have
                # a known due cycle (WAKE_NEVER when there are none).
                self.idle_until(self._timers.min_due)
            return
        if len(self._outstanding) >= self.config.max_outstanding:
            # The stall counter ticks per cycle spent at the AHB cap, so
            # the core must stay awake here.
            self.stats.incr("core.stalls.outstanding")
            return
        if cycle < self._next_issue_cycle:
            # Think-time gap with headroom below the cap: nothing to do
            # until the next issue (or an earlier L1 hit to retire).
            self.idle_until(min(self._next_issue_cycle,
                                self._timers.min_due))
            return
        op = self.trace[self._pc]
        if not self._issue(op, cycle):
            self.stats.incr("core.stalls.l2")
            return
        self._pc += 1
        next_think = (self.trace[self._pc].think
                      if self._pc < self._n_ops else 0)
        self._next_issue_cycle = cycle + max(1, next_think)

    def _issue(self, op: TraceOp, cycle: int) -> bool:
        if self.l1 is not None:
            if op.op == "R" and self.l1.read(op.addr):
                done = cycle + self.config.l1_latency
                self._timers.push(done, (self._retire, ()))
                self.wake(done)
                return True
            if op.op in ("W", "A"):
                # Write-through: L1 state updates, but the store always
                # continues to the L2 (atomics always go to the L2).
                self.l1.write(op.addr)
        token = self._token_seq
        if not self.l2.core_request(op.op, op.addr, cycle, token=token):
            return False
        self._token_seq += 1
        self._outstanding[token] = op
        self.stats.incr("core.l2_requests")
        return True

    def _retire(self) -> None:
        self.completed_ops += 1
        self.stats.incr("core.ops_completed")

    def _on_l2_complete(self, token: int, cycle: int,
                        version: int = 0) -> None:
        op = self._outstanding.pop(token, None)
        if op is None:
            return
        self.wake()
        self._retire()
        if self.l1 is not None and op.op == "R":
            self.l1.refill(op.addr)

    def progress(self) -> float:
        """Fraction of the trace completed (for harness reporting)."""
        return self.completed_ops / len(self.trace) if len(self.trace) else 1.0
