"""The notification network: a bufferless OR-mesh with time windows.

Operation (Sec. 3.3): time is divided into synchronized windows of
``window`` cycles.  At the *start* of a window every NIC that wants to
order requests injects an N*m-bit vector with its own field set (m =
bits per core, encoding the request count in binary, plus one shared
"stop" bit), and every cycle each router ORs its neighbours' latches
into its own — merging is contention-free, so nothing is buffered.  The
constructor refuses a window below the worst-case propagation
(:meth:`NotificationConfig.minimum_window`: one cycle per hop of
Manhattan distance, plus the injection cycle), so at the window *end*
every node holds the OR of the vectors injected at its start.  The model
computes that OR once, at the start, and delivers it at the end; the
hop-by-hop mesh is the reference model of
``tests/test_notification_definition.py``.

NICs push: one with something to inject calls its node's
:meth:`~NotificationNetwork.announce` hook (which :meth:`attach`
returns), and a window start polls only the announced nodes, in node
order; a node whose source answers 0 leaves the set.  A non-empty
merged vector goes to every sink; an empty one only in the window right
after a stop-bit window, whose delivery re-enables the NICs the stop
bit disabled.  Otherwise no sink is called: an empty delivery to an
enabled NIC that did not announce changes nothing.  The network sleeps
from each window start to that window's end.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional

from repro.noc.config import NotificationConfig
from repro.sim.engine import Clocked, Engine
from repro.sim.stats import StatsRegistry


class NotificationNetwork(Clocked):
    """Window sequencing of the OR-mesh: one OR per window."""

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
        # Per-node callbacks installed by NICs.
        self.sources: List[Optional[Callable[[], int]]] = [None] * self.n_nodes
        self.sinks: List[Optional[Callable[[int], None]]] = [None] * self.n_nodes
        # Nodes whose source the next window start polls, as a bit mask
        # (bit i = node i).
        self._announced = 0
        # The current window's merged vector: ORed at its start,
        # delivered at its end.
        self._merged = 0
        # The last delivered vector carried the stop bit: deliver the
        # next one to every sink, empty or not.
        self._stopped = False
        engine.register(self)

    def attach(self, node: int, source: Callable[[], int],
               sink: Callable[[int], None]) -> Callable[[], None]:
        """Install *source* (polled at the window starts after *node*
        announces; returns the vector to inject) and *sink* (called with
        the merged vector at window ends) for *node*; return the node's
        announce hook."""
        self.sources[node] = source
        self.sinks[node] = sink
        return partial(self.announce, node)

    def announce(self, node: int) -> None:
        """*node* has something to inject: poll its source from the next
        window start on (this cycle's, if it is one and the network has
        not stepped yet), until it answers 0."""
        self._announced |= 1 << node

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

    def step(self, cycle: int) -> None:
        window = self.config.window
        if cycle % window:
            return
        merged = 0
        announced = pending = self._announced
        while pending:
            low = pending & -pending
            pending ^= low
            vector = self.sources[low.bit_length() - 1]()
            if vector:
                merged |= vector
                self.stats.incr("notification.injected")
            else:
                announced ^= low
        self._announced = announced
        self._merged = merged
        self.idle_until(cycle + window - 1)

    def commit(self, cycle: int) -> None:
        if cycle % self.config.window != self.config.window - 1:
            return
        merged = self._merged
        if not (merged or self._stopped):
            return                   # nothing to deliver this window
        self._merged = 0
        self._stopped = self.stop_asserted(merged)
        for sink in self.sinks:
            if sink is not None:
                sink(merged)
        if merged:
            journal = self.journal
            if journal is not None:
                journal.record(cycle, "notification", "window",
                               "delivered", f"vector={merged:#x}")
            self.stats.incr("notification.windows_nonempty")
