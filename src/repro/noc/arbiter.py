"""Arbiters used throughout the SCORPIO network.

The paper uses rotating-priority arbiters in three places: switch
allocation inside the main-network router, conflict resolution between
lookaheads, and — most importantly — the NIC's rotating priority arbiter
that turns each merged notification bit-vector into a consistent global
order of source IDs (Sec. 3.1, step 3).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence


class RotatingPriorityArbiter:
    """Round-robin arbiter over *n* requesters.

    ``grant`` picks the requesting index closest (cyclically) to the
    current priority pointer.  ``rotate`` advances the pointer so the most
    recently granted requester becomes lowest priority — classic
    round-robin fairness.
    """

    def __init__(self, n: int, start: int = 0) -> None:
        if n <= 0:
            raise ValueError("arbiter needs at least one requester")
        self.n = n
        self._pointer = start % n

    @property
    def pointer(self) -> int:
        return self._pointer

    def grant(self, requests: int, rotate: bool = True) -> Optional[int]:
        """Grant the asserted line (bit ``i`` of *requests* is line ``i``)
        first at or after the pointer, wrapping; None if none is."""
        if requests >> self.n:
            raise ValueError(f"request lines beyond {self.n}: {requests:#x}")
        if not requests:
            return None
        pick = requests >> self._pointer << self._pointer or requests
        idx = (pick & -pick).bit_length() - 1
        if rotate:
            self._pointer = (idx + 1) % self.n
        return idx

    def grant_sole(self, idx: int) -> int:
        """Grant request line *idx*, the only one asserted: ``grant`` of
        the one-hot mask, without looking at it."""
        self._pointer = (idx + 1) % self.n
        return idx

    def order(self, requests: Sequence[bool]) -> List[int]:
        """Full priority order of the asserted requesters (no rotation).

        This is the operation the NIC performs on a merged notification
        bit-vector: all nodes apply the same pointer so all derive the
        same global order for this time window.
        """
        if len(requests) != self.n:
            raise ValueError(f"expected {self.n} request lines, got {len(requests)}")
        return [(self._pointer + offset) % self.n
                for offset in range(self.n)
                if requests[(self._pointer + offset) % self.n]]

    def advance(self) -> None:
        """Rotate the priority pointer by one (per-time-window update)."""
        self._pointer = (self._pointer + 1) % self.n


def rotating_order(n_sources: int, pointer: int, asserted: Iterable[int]) -> List[int]:
    """Order *asserted* source ids by rotating priority from *pointer*.

    Stateless helper equivalent to :meth:`RotatingPriorityArbiter.order`;
    used where several components must provably share the same decision.
    """
    members = set(asserted)
    for sid in members:
        if not 0 <= sid < n_sources:
            raise ValueError(f"source id {sid} out of range 0..{n_sources - 1}")
    return [(pointer + offset) % n_sources
            for offset in range(n_sources)
            if (pointer + offset) % n_sources in members]
