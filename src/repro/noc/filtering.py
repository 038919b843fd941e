"""In-Network Coherence Filtering (INCF) — Agarwal et al., MICRO 2009.

Sec. 5.3 of the SCORPIO paper points at INCF as future work: "filter
redundant snoop requests by embedding small coherence filters within
routers in the network", reducing the bandwidth demand of broadcast
coherence instead of boosting raw throughput.

Routers holding a :class:`BroadcastFilter` prune entire branches of the
XY broadcast tree when *no node in that branch's subtree* could possibly
care about the snooped address — the same conservative region-level
question the tile's RegionScout-style tracker answers at the L2, asked
early enough to save the link traversals, not just the tag lookup.

**Scope.** Filtering applies to *unordered* broadcasts — HyperTransport-
style directory snoops and TokenB-style snoopy requests.  SCORPIO's
globally ordered GO-REQ broadcasts cannot be filtered in-network: every
NIC must observe every request to advance its ESID, so for the ordered
network INCF-style savings would need filter-aware notification handling
(exactly why the paper defers it to future work).

**Substitution note (see DESIGN.md).**  Real INCF maintains the router
filter tables with in-network update messages; this model answers
interest queries from the L2s' current region trackers, MSHRs and
writeback buffers (a zero-lag, zero-storage idealization of those
tables).  The direction of the idealization is *safe*: the oracle is
exactly as conservative as the L2-side filter whose work it moves into
the network, so no snoop that any L2 would have acted on is ever
dropped; the measured link savings are an upper bound on what finite
tables achieve.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache
from typing import Any, Callable, FrozenSet, Iterable, Optional, Set, Tuple

from repro.coherence.messages import CoherenceRequest, DirForward, ReqKind
from repro.noc.routing import LOCAL, broadcast_outports, neighbor, opposite
from repro.sim.stats import StatsRegistry


@lru_cache(maxsize=None)
def broadcast_subtree(node: int, outport: int, width: int,
                      height: int) -> FrozenSet[int]:
    """Every node whose LOCAL copy of a broadcast flows through the branch
    leaving *node* via *outport* (under the XY broadcast tree)."""
    if outport == LOCAL:
        return frozenset({node})
    nxt = neighbor(node, outport, width, height)
    inport = opposite(outport)
    nodes: Set[int] = set()
    for port in broadcast_outports(nxt, inport, width, height):
        nodes |= broadcast_subtree(nxt, port, width, height)
    return frozenset(nodes)


def snoop_target(payload: Any) -> Optional[Tuple[int, int]]:
    """(address, requester) of a filterable broadcast payload, or None.

    Only actual snoops are filterable; anything the filter does not
    recognize is forwarded everywhere (conservative default).
    """
    if isinstance(payload, CoherenceRequest):
        if payload.kind is ReqKind.PUT:
            # Every snoopy L2 observes PUTs (writeback-race bookkeeping),
            # mirroring the L2-side filter's own PUT exemption.
            return None
        return payload.addr, payload.requester
    if isinstance(payload, DirForward) and payload.action == "snoop":
        return payload.addr, payload.request.requester
    return None


class BroadcastFilter:
    """The mesh-wide INCF filter consulted by every router.

    ``interest(node, addr)`` answers the conservative question "might
    *node* need to observe a snoop of *addr*?"; ``always_interested``
    lists nodes that see every snoop regardless (snoopy-mode memory
    controllers, which keep the owner bits)."""

    def __init__(self, width: int, height: int,
                 interest: Callable[[int, int], bool],
                 always_interested: Iterable[int] = (),
                 stats: Optional[StatsRegistry] = None) -> None:
        self.width = width
        self.height = height
        self.interest = interest
        self.always_interested = frozenset(always_interested)
        self.stats = stats or StatsRegistry()

    # ------------------------------------------------------------------

    def _branch_needed(self, subtree: FrozenSet[int], addr: int,
                       requester: int) -> bool:
        if requester in subtree:
            return True   # the requester always sees its own snoop
        if self.always_interested & subtree:
            return True
        return any(self.interest(node, addr) for node in subtree)

    def prune(self, node: int, outports: FrozenSet[int],
              payload: Any) -> FrozenSet[int]:
        """Subset of *outports* a broadcast of *payload* still needs."""
        target = snoop_target(payload)
        if target is None:
            return outports
        addr, requester = target
        keep: Set[int] = set()
        for port in outports:
            subtree = broadcast_subtree(node, port, self.width, self.height)
            if self._branch_needed(subtree, addr, requester):
                keep.add(port)
            elif port == LOCAL:
                self.stats.incr("incf.ejections_saved")
            else:
                self.stats.incr("incf.branches_pruned")
                # In a tree each subtree node is reached over exactly one
                # link, so the pruned branch saves |subtree| traversals.
                self.stats.incr("incf.links_saved", len(subtree))
        if len(keep) < len(outports):
            self.stats.incr("incf.broadcasts_trimmed")
        return frozenset(keep)


class L2InterestOracle:
    """Interest callback backed by live L2 controllers (each must offer
    ``snoop_interest(addr)``).  A callable class rather than a closure so
    filters holding it stay picklable for checkpoint/restore."""

    def __init__(self, l2s) -> None:
        self.l2s = l2s

    def __call__(self, node: int, addr: int) -> bool:
        return self.l2s[node].snoop_interest(addr)


def l2_interest_oracle(l2s) -> Callable[[int, int], bool]:
    """Build the interest callback from a list of L2 controllers."""
    return L2InterestOracle(l2s)


class FilterTable:
    """A finite-capacity view over an interest oracle.

    Real INCF filters are small per-router tables, not oracles: they
    track a bounded number of regions and must stay *conservative* when
    they overflow.  This model keeps an LRU set of regions known to be
    **uninteresting** for some node set — the only state a filter may
    act on — and falls back to "forward" for anything it does not
    currently track.  Capacity therefore only ever *reduces* the
    savings, never the safety, letting the harness measure how much of
    the oracle's (upper-bound) benefit survives realistic table sizes.

    ``region_bytes`` must match the L2 region trackers so a table entry
    means the same thing at the router as at the tile.
    """

    def __init__(self, interest: Callable[[int, int], bool],
                 capacity: int = 128, region_bytes: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("filter table needs at least one entry")
        if region_bytes <= 0 or region_bytes & (region_bytes - 1):
            raise ValueError("region size must be a power of two")
        self._oracle = interest
        self.capacity = capacity
        self.region_bytes = region_bytes
        # LRU of region -> True (region currently tracked).  Tracking a
        # region means the table may answer disinterest queries for it;
        # untracked regions always report "interested" (conservative).
        self._tracked: "OrderedDict[int, bool]" = OrderedDict()
        self.lookups = 0
        self.conservative_fallbacks = 0

    def _region(self, addr: int) -> int:
        return addr // self.region_bytes

    def _touch(self, region: int) -> bool:
        """Returns True iff *region* was already tracked.  A miss admits
        the region for future queries (LRU-evicting if full) but the
        current query answers conservatively — the table only has an
        opinion about regions it has already observed."""
        if region in self._tracked:
            self._tracked.move_to_end(region)
            return True
        if len(self._tracked) >= self.capacity:
            self._tracked.popitem(last=False)
        self._tracked[region] = True
        return False

    def __call__(self, node: int, addr: int) -> bool:
        """Interest query with finite-table semantics."""
        self.lookups += 1
        if not self._touch(self._region(addr)):
            self.conservative_fallbacks += 1
            return True    # unknown region: must forward
        return self._oracle(node, addr)

    def tracked_regions(self) -> int:
        return len(self._tracked)
