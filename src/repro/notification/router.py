"""Notification-network router (Sec. 3.3, Figure 3).

Each "router" is just five N-bit bitwise-OR gates and an N-bit latch: every
cycle it ORs the latched vectors of its mesh neighbours with its own and
with any locally injected vector.  Messages merge on contention instead of
queueing, so the network is bufferless and its latency has a fixed bound —
one cycle per hop of Manhattan distance.

Bit-vectors are represented as Python ints (bit ``i`` = core ``i``'s
field; with ``bits_per_core > 1`` each core owns a contiguous bit field
encoding its request count in binary).

The router is state only: :class:`~repro.notification.network.
NotificationNetwork` is the clocked component and drives every latch.
"""

from __future__ import annotations

from typing import List


class NotificationRouter:
    """One OR-and-latch stage of the notification mesh."""

    def __init__(self, node: int) -> None:
        self.node = node
        self.accum = 0          # latched (committed) vector
        self._next = 0
        self.neighbors: List["NotificationRouter"] = []

    def connect(self, other: "NotificationRouter") -> None:
        self.neighbors.append(other)

    def clear(self) -> None:
        """Window boundary: forget the delivered vector."""
        self.accum = 0
        self._next = 0
