"""The notification network: a bufferless OR-mesh with time windows.

Operation (Sec. 3.3):

* Time is divided into synchronized windows of ``window`` cycles — strictly
  greater than the network's worst-case propagation (one cycle per hop of
  Manhattan distance, plus the injection cycle).
* At the *start* of a window, every NIC that wants to order requests
  injects an N*m-bit vector with its own field set (m = bits per core,
  encoding the request count in binary, plus one shared "stop" bit).
* Every cycle each router ORs its neighbours' latched vectors into its
  own — merging is contention-free, so no buffering is ever needed.
* By the *end* of the window every node holds the same merged vector,
  which is handed to its NIC's notification tracker, and the latches
  clear for the next window.

The network is the single clocked component; it drives its OR-routers
directly so injection and delivery land on exact window boundaries.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.noc.config import NotificationConfig
from repro.notification.router import NotificationRouter
from repro.sim.engine import Clocked, Engine
from repro.sim.stats import StatsRegistry


class NotificationNetwork(Clocked):
    """Mesh of OR-routers plus window sequencing."""

    # Opt-in event journal (repro.sim.journal); see attach_observability.
    journal = None

    def __init__(self, width: int, height: int, config: NotificationConfig,
                 engine: Engine, stats: Optional[StatsRegistry] = None) -> None:
        if config.window < NotificationConfig.minimum_window(width, height):
            raise ValueError(
                f"notification window below the latency bound: "
                f"{config.window} < "
                f"{NotificationConfig.minimum_window(width, height)} for a "
                f"{width}x{height} mesh")
        self.width = width
        self.height = height
        self.config = config
        self.stats = stats or StatsRegistry()
        self.n_nodes = width * height
        self.routers = [NotificationRouter(i) for i in range(self.n_nodes)]
        for node, router in enumerate(self.routers):
            x, y = node % width, node // width
            if x + 1 < width:
                self._link(router, self.routers[node + 1])
            if y + 1 < height:
                self._link(router, self.routers[node + width])
        # Per-node callbacks installed by NICs.
        self.sources: List[Optional[Callable[[], int]]] = [None] * self.n_nodes
        self.sinks: List[Optional[Callable[[int], None]]] = [None] * self.n_nodes
        # Whether any latch moved at the last commit (or a source
        # injected this cycle): while it holds, every router ORs its
        # neighbours; once it does not, each is a fixed point of its
        # neighbourhood and the network sleeps to the window end.
        self._changed = False
        engine.register(self)

    @staticmethod
    def _link(a: NotificationRouter, b: NotificationRouter) -> None:
        a.connect(b)
        b.connect(a)

    def attach(self, node: int, source: Callable[[], int],
               sink: Callable[[int], None]) -> None:
        """Install *source* (pulled at window starts, returns the vector to
        inject) and *sink* (called with the merged vector at window ends)
        for *node*."""
        self.sources[node] = source
        self.sinks[node] = sink

    # -- stop bit -------------------------------------------------------

    @property
    def stop_bit(self) -> int:
        """Bit position of the shared 'stop' flag (above all core fields)."""
        return self.n_nodes * self.config.bits_per_core

    def stop_asserted(self, vector: int) -> bool:
        return bool(vector >> self.stop_bit & 1)

    def core_count(self, vector: int, core: int) -> int:
        """Decode *core*'s announced request count from *vector*."""
        bits = self.config.bits_per_core
        return (vector >> (core * bits)) & ((1 << bits) - 1)

    def encode(self, core: int, count: int, stop: bool = False) -> int:
        bits = self.config.bits_per_core
        if count > self.config.max_requests_per_window:
            raise ValueError(
                f"cannot announce {count} requests with {bits} bit(s)")
        vector = count << (core * bits)
        if stop:
            vector |= 1 << self.stop_bit
        return vector

    # -- clocking -------------------------------------------------------

    def window_phase(self, cycle: int) -> int:
        return cycle % self.config.window

    def step(self, cycle: int) -> None:
        routers = self.routers
        if self.window_phase(cycle) == 0:
            for node, source in enumerate(self.sources):
                if source is not None:
                    vector = source()
                    if vector:
                        routers[node].accum |= vector
                        self._changed = True
                        self.stats.incr("notification.injected")
        if self._changed:
            for router in routers:
                merged = router.accum
                for other in router.neighbors:
                    merged |= other.accum
                router._next = merged

    def commit(self, cycle: int) -> None:
        if self._changed:
            changed = False
            for router in self.routers:
                if router.accum != router._next:
                    router.accum = router._next
                    changed = True
            self._changed = changed
        phase = self.window_phase(cycle)
        if phase == self.config.window - 1:
            merged = [router.accum for router in self.routers]
            # Invariant: all nodes hold the identical merged vector.
            if any(v != merged[0] for v in merged):  # pragma: no cover
                raise AssertionError(
                    "notification window too short: nodes disagree on "
                    "the merged vector")
            # Sinks fire every window, vector or not: an empty delivery
            # re-enables NICs that saw a stop bit.
            for node, sink in enumerate(self.sinks):
                if sink is not None:
                    sink(merged[node])
            if merged[0]:
                journal = self.journal
                if journal is not None:
                    journal.record(cycle, "notification", "window",
                                   "delivered", f"vector={merged[0]:#x}")
                for router in self.routers:
                    router.clear()
                self._changed = False
                self.stats.incr("notification.windows_nonempty")
            # Next cycle is a window start: stay awake to poll sources.
        elif not self._changed:
            # Quiet window or converged mesh: sources are polled only at
            # window starts, so nothing moves before the window-end
            # delivery.
            self.idle_until(cycle - phase + self.config.window - 1)
