"""Notification tracker: turns merged notification vectors into the
global order of expected source IDs (ESIDs).

Every NIC runs one tracker.  All trackers receive the identical sequence
of merged vectors (guaranteed by the notification network) and apply the
same rotating-priority rule, so they derive the same total order without
any further communication — the essence of SCORPIO's distributed ordering.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import Deque, Optional, Tuple

from repro.noc.arbiter import rotating_order


# Every tracker decodes the same vectors from the same pointer, so a
# window's vector is decoded once per chip, not once per node.  Bounded,
# so peak memory does not grow with the length of a run.
@lru_cache(maxsize=4096)
def _expand(vector: int, pointer: int, n_cores: int,
            bits: int) -> Tuple[int, ...]:
    """Unroll a merged vector into the SID service order.

    Cores are served in rotating-priority order from the shared pointer;
    a core announcing k requests contributes k consecutive slots (its
    requests are already point-to-point ordered in the main network, so
    consecutive slots are unambiguous).  Walks the set fields only.
    """
    mask = (1 << bits) - 1
    counts = {}
    rest = vector & ((1 << (n_cores * bits)) - 1)
    while rest:
        shift = (rest & -rest).bit_length() - 1
        shift -= shift % bits
        counts[shift // bits] = rest >> shift & mask
        rest &= ~(mask << shift)
    return tuple(core for core in rotating_order(n_cores, pointer, counts)
                 for _ in range(counts[core]))


class NotificationTracker:
    """Queue of merged vectors + the current ESID expansion.

    A vector is decoded when the order moves, never when someone asks:
    :meth:`push` decodes it at once if nothing is being served, and
    :meth:`consume_esid` decodes the next queued one as the last slot of
    the current expansion goes.  So the expansion is empty only when the
    queue is too, :meth:`current_esid` is a pure read of its head, and
    :attr:`queue_full` (the stop bit) counts the vectors waiting behind
    the one being served.
    """

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
        self._refill()

    # -- ESID side ------------------------------------------------------

    def current_esid(self) -> Optional[int]:
        """The SID of the next request every node must process, if known."""
        expansion = self._expansion
        return expansion[0] if expansion else None

    def consume_esid(self) -> int:
        """The expected request was forwarded to the cache controller."""
        if not self._expansion:
            raise RuntimeError("no ESID outstanding")
        self.consumed += 1
        sid = self._expansion.popleft()
        self._refill()
        return sid

    def _refill(self) -> None:
        while not self._expansion and self._queue:
            vector = self._queue.popleft()
            self._expansion.extend(_expand(vector, self._pointer,
                                           self.n_cores, self.bits_per_core))
            # Fairness: the priority pointer advances once per processed
            # notification message, identically at every node.
            self._pointer = (self._pointer + 1) % self.n_cores

    @property
    def pointer(self) -> int:
        return self._pointer
