"""Notification tracker: turns merged notification vectors into the
global order of expected source IDs (ESIDs).

Every NIC runs one tracker.  All trackers receive the identical sequence
of merged vectors (guaranteed by the notification network) and apply the
same rotating-priority rule, so they derive the same total order without
any further communication — the essence of SCORPIO's distributed ordering.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional

from repro.noc.arbiter import rotating_order


class NotificationTracker:
    """Queue of merged vectors + the current ESID expansion."""

    def __init__(self, n_cores: int, bits_per_core: int,
                 queue_depth: int) -> None:
        self.n_cores = n_cores
        self.bits_per_core = bits_per_core
        self.queue_depth = queue_depth
        self._queue: Deque[int] = deque()
        self._expansion: Deque[int] = deque()
        self._pointer = 0
        # Position in the shared global order: how many ordered requests
        # this tracker's NIC has consumed so far.  All trackers walk the
        # same sequence, so equal positions must expect equal ESIDs (the
        # invariant repro.verification.monitor checks).
        self.consumed = 0

    # -- queue side -----------------------------------------------------

    @property
    def queue_full(self) -> bool:
        return len(self._queue) >= self.queue_depth

    def push(self, vector: int) -> None:
        """Enqueue a merged vector received at a window end."""
        if self.queue_full:
            raise RuntimeError("notification tracker queue overrun; the "
                               "stop bit should have prevented this")
        self._queue.append(vector)

    # -- decode ---------------------------------------------------------

    def _count(self, vector: int, core: int) -> int:
        return (vector >> (core * self.bits_per_core)) \
            & ((1 << self.bits_per_core) - 1)

    def _expand(self, vector: int) -> List[int]:
        """Unroll a merged vector into the SID service order.

        Cores are served in rotating-priority order from the shared
        pointer; a core announcing k requests contributes k consecutive
        slots (its requests are already point-to-point ordered in the
        main network, so consecutive slots are unambiguous).
        """
        counts = {core: self._count(vector, core)
                  for core in range(self.n_cores)
                  if self._count(vector, core)}
        order = rotating_order(self.n_cores, self._pointer, counts.keys())
        expansion: List[int] = []
        for sid in order:
            expansion.extend([sid] * counts[sid])
        return expansion

    # -- ESID side ------------------------------------------------------

    def current_esid(self) -> Optional[int]:
        """The SID of the next request every node must process, if known."""
        expansion = self._expansion
        if expansion:
            # Hot path (reserved-VC eligibility asks this constantly):
            # a non-empty expansion never needs a refill.
            return expansion[0]
        self._refill()
        return expansion[0] if expansion else None

    def peek_esid(self) -> Optional[int]:
        """:meth:`current_esid` without its refill: the same answer,
        and the tracker left as it was (for observers)."""
        if self._expansion:
            return self._expansion[0]
        return self._expand(self._queue[0])[0] if self._queue else None

    def consume_esid(self) -> int:
        """The expected request was forwarded to the cache controller."""
        self._refill()
        if not self._expansion:
            raise RuntimeError("no ESID outstanding")
        self.consumed += 1
        return self._expansion.popleft()

    def _refill(self) -> None:
        while not self._expansion and self._queue:
            vector = self._queue.popleft()
            self._expansion.extend(self._expand(vector))
            # Fairness: the priority pointer advances once per processed
            # notification message, identically at every node.
            self._pointer = (self._pointer + 1) % self.n_cores

    @property
    def pointer(self) -> int:
        return self._pointer

    def outstanding(self) -> int:
        """Total ordered-but-unserviced request slots known so far."""
        pending = len(self._expansion)
        for vector in self._queue:
            pending += sum(self._count(vector, core)
                           for core in range(self.n_cores))
        return pending
