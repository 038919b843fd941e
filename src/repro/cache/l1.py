"""Split L1 instruction/data caches (write-through).

The Freescale e200 cores have private split 4-way 16 KB I/D caches.  The
cores were not designed for hardware coherency, so the chip adds an
invalidation port: the (inclusive) L2 invalidates L1 lines when it loses
or evicts a line.  Write-through means the L2 always holds current data,
so invalidation is the only back-channel needed.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.array import CacheArray
from repro.sim.stats import StatsRegistry


class L1Cache:
    """One write-through L1 (either the I-side or the D-side)."""

    VALID = "V"
    INVALID = "I"

    def __init__(self, line_size: int, size_bytes: int = 16 * 1024,
                 ways: int = 4, hit_latency: int = 2,
                 stats: Optional[StatsRegistry] = None,
                 name: str = "l1") -> None:
        self.array = CacheArray(size_bytes, ways, line_size,
                                invalid_state=self.INVALID)
        self.hit_latency = hit_latency
        self.stats = stats or StatsRegistry()
        self.name = name

    def read(self, addr: int) -> bool:
        """True on hit.  Misses must be refilled via :meth:`refill`."""
        hit = self.array.lookup(addr) is not None
        self.stats.incr(f"{self.name}.read_hits" if hit
                        else f"{self.name}.read_misses")
        return hit

    def write(self, addr: int) -> bool:
        """Write-through, no-write-allocate: update on hit, always forward
        to the L2.  Returns True when the L1 held the line."""
        hit = self.array.lookup(addr) is not None
        self.stats.incr(f"{self.name}.write_hits" if hit
                        else f"{self.name}.write_misses")
        return hit

    def refill(self, addr: int) -> None:
        """Install the line after an L2 (or beyond) fill."""
        if self.array.lookup(addr, touch=False) is not None:
            return
        way, victim = self.array.victim(addr)
        if victim is not None:
            self.array.evict(self.array.addr_of(
                self.array.set_index(addr), victim))
        self.array.fill(addr, self.VALID, way=way)

    def invalidate(self, addr: int) -> bool:
        """External invalidation port (driven by the L2).  True if held."""
        evicted = self.array.evict(addr)
        if evicted is not None:
            self.stats.incr(f"{self.name}.invalidations")
            return True
        return False

    def holds(self, addr: int) -> bool:
        return self.array.lookup(addr, touch=False) is not None
