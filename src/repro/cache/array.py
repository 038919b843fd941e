"""Set-associative cache arrays with true-LRU replacement.

Tag/state storage only — the simulator never moves actual data bytes, it
tracks line states and ownership.  Used for the split L1 I/D caches
(write-through, 16 KB, 4-way) and the private inclusive L2 (128 KB,
4-way) of each tile, as well as the directory caches of the baselines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple


def is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def line_addr(addr: int, line_size: int) -> int:
    """Base address of the *line_size*-byte line holding *addr*."""
    return addr & ~(line_size - 1)


@dataclass
class CacheLine:
    """One tag-array entry."""

    tag: int
    state: Any                      # protocol-defined (enum or str)
    lru: int = 0                    # higher = more recently used
    meta: Dict[str, Any] = field(default_factory=dict)


class CacheArray:
    """A set-associative array of :class:`CacheLine`.

    Addresses are byte addresses; the array derives line/set indexing from
    ``line_size`` and geometry.  ``invalid_state`` marks empty ways.
    """

    def __init__(self, size_bytes: int, ways: int, line_size: int,
                 invalid_state: Any = "I") -> None:
        if not is_pow2(line_size):
            raise ValueError("line size must be a power of two")
        if size_bytes % (ways * line_size):
            raise ValueError("size must divide evenly into ways * line size")
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_size = line_size
        self.n_sets = size_bytes // (ways * line_size)
        if not is_pow2(self.n_sets):
            raise ValueError("set count must be a power of two")
        self.invalid_state = invalid_state
        # A set's way list is allocated by its first fill; until then
        # the set is None and reads as empty.
        self._sets: List[Optional[List[Optional[CacheLine]]]] = \
            [None] * self.n_sets
        self._lru_clock = 0

    # -- address helpers -------------------------------------------------

    def line_addr(self, addr: int) -> int:
        return line_addr(addr, self.line_size)

    def set_index(self, addr: int) -> int:
        return (addr // self.line_size) % self.n_sets

    def tag_of(self, addr: int) -> int:
        return addr // (self.line_size * self.n_sets)

    # -- lookups ----------------------------------------------------------

    def lookup(self, addr: int, touch: bool = True) -> Optional[CacheLine]:
        """Return the line holding *addr* (any non-invalid state)."""
        tag = self.tag_of(addr)
        for line in self._sets[self.set_index(addr)] or ():
            if line is not None and line.tag == tag \
                    and line.state != self.invalid_state:
                if touch:
                    self._lru_clock += 1
                    line.lru = self._lru_clock
                return line
        return None

    def state_of(self, addr: int) -> Any:
        line = self.lookup(addr, touch=False)
        return line.state if line is not None else self.invalid_state

    # -- fills / evictions -------------------------------------------------

    def victim(self, addr: int,
               evictable=lambda line: True) -> Tuple[Optional[int], Optional[CacheLine]]:
        """Choose a way for a fill of *addr*.

        Returns ``(way, current_occupant)``; the occupant is ``None`` when
        a free way exists.  *evictable* can veto victims (e.g. lines with
        outstanding transactions); if nothing is evictable, ``(None,
        None)`` is returned and the caller must stall.
        """
        cache_set = self._sets[self.set_index(addr)]
        if cache_set is None:
            return 0, None
        for way, line in enumerate(cache_set):
            if line is None or line.state == self.invalid_state:
                return way, None
        candidates = [(line.lru, way) for way, line in enumerate(cache_set)
                      if evictable(line)]
        if not candidates:
            return None, None
        _lru, way = min(candidates)
        return way, cache_set[way]

    def fill(self, addr: int, state: Any, way: Optional[int] = None,
             **meta: Any) -> CacheLine:
        """Install *addr* in *way* (or a victim way) with *state*."""
        index = self.set_index(addr)
        cache_set = self._sets[index]
        if cache_set is None:
            cache_set = self._sets[index] = [None] * self.ways
        if way is None:
            way, occupant = self.victim(addr)
            if way is None:
                raise RuntimeError("no evictable way for fill")
        else:
            occupant = cache_set[way]
        if occupant is not None and occupant.state != self.invalid_state:
            raise RuntimeError(
                "fill would silently drop a live line; evict first")
        self._lru_clock += 1
        line = CacheLine(tag=self.tag_of(addr), state=state,
                         lru=self._lru_clock, meta=dict(meta))
        cache_set[way] = line
        return line

    def evict(self, addr: int) -> Optional[CacheLine]:
        """Remove *addr*'s line (returns it, or None if absent)."""
        tag = self.tag_of(addr)
        cache_set = self._sets[self.set_index(addr)]
        for way, line in enumerate(cache_set or ()):
            if line is not None and line.tag == tag:
                cache_set[way] = None
                return line
        return None

    def set_state(self, addr: int, state: Any) -> CacheLine:
        line = self.lookup(addr, touch=False)
        if line is None:
            raise KeyError(f"address {addr:#x} not present")
        line.state = state
        return line

    # -- iteration / accounting --------------------------------------------

    def lines(self) -> Iterator[Tuple[int, CacheLine]]:
        """Yield (set_index, line) for all valid lines."""
        for idx, cache_set in enumerate(self._sets):
            for line in cache_set or ():
                if line is not None and line.state != self.invalid_state:
                    yield idx, line

    def occupancy(self) -> int:
        return sum(1 for _ in self.lines())

    def addr_of(self, set_index: int, line: CacheLine) -> int:
        """Reconstruct the base address of *line* in *set_index*."""
        return (line.tag * self.n_sets + set_index) * self.line_size
