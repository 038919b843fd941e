"""Mesh topology builder for the main network.

Builds a ``width x height`` grid of :class:`~repro.noc.router.Router`,
wires neighbouring routers together, and attaches one NIC-like endpoint
per node on the LOCAL port.  The endpoint must implement the downstream
interface (``deliver_packet`` / ``queue_credit_release``) and the upstream
interface used for injection (it holds a credit view of the router's
LOCAL input port and calls ``router.deliver_packet`` itself).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.noc.config import NocConfig
from repro.noc.router import Router
from repro.noc.routing import DIRECTIONS, LOCAL, neighbor
from repro.sim.engine import Engine
from repro.sim.stats import StatsRegistry


class Mesh:
    """The SCORPIO main network: routers + links as one fabric."""

    def __init__(self, config: NocConfig, engine: Engine,
                 stats: Optional[StatsRegistry] = None) -> None:
        self.config = config
        self.engine = engine
        self.stats = stats or StatsRegistry()
        self.routers: List[Router] = []
        for node in range(config.n_nodes):
            router = Router(node, config, self.stats)
            self.routers.append(router)
            engine.register(router)
        for node, router in enumerate(self.routers):
            for port in DIRECTIONS:
                try:
                    peer = neighbor(node, port, config.width, config.height)
                except ValueError:
                    continue
                router.connect(port, self.routers[peer], peer)
        self._endpoints: Dict[int, object] = {}

    def bind_rvc_direct(self, nics: Sequence[object]) -> None:
        """Bind every outport's reserved-VC question to the NIC of the
        node it points at (*nics* is indexed by node id; each offers
        ``rvc_eligible(sid, seq)``).  Until this runs the reserved VCs
        admit nothing."""
        for router in self.routers:
            router.bind_rvc_direct(nics)

    def set_broadcast_filter(self, bcast_filter) -> None:
        """Install an INCF :class:`~repro.noc.filtering.BroadcastFilter`
        on every router (None uninstalls)."""
        for router in self.routers:
            router.broadcast_filter = bcast_filter

    def attach(self, node: int, endpoint: object) -> Router:
        """Attach *endpoint* (a NIC) to *node*'s LOCAL port."""
        if node in self._endpoints:
            raise ValueError(f"node {node} already has an endpoint")
        router = self.routers[node]
        router.connect(LOCAL, endpoint, node)
        self._endpoints[node] = endpoint
        return router

    def endpoint(self, node: int) -> object:
        return self._endpoints[node]

    def total_occupancy(self) -> int:
        return sum(router.occupancy() for router in self.routers)

    def quiescent(self) -> bool:
        """True when no packets are buffered or in flight anywhere and
        every credit is home."""
        for router in self.routers:
            if router.occupancy():
                return False
            if router._arrivals or router._lookaheads \
                    or router._credit_returns:
                return False
        return True

    def check_sid_invariant(self) -> bool:
        return all(router.sid_invariant_holds() for router in self.routers)


def zero_load_latency(config: NocConfig, src: int, dst: int) -> int:
    """Analytic zero-load packet latency (cycles) from NIC inject at *src*
    to NIC receive at *dst*, assuming every hop bypasses.

    Injection link (2) + per-hop bypass (2 cycles each: 1-stage router +
    1-stage link) for all but the final router, plus final-router ST and
    ejection to the NIC (1).
    """
    from repro.noc.routing import hop_count
    hops = hop_count(src, dst, config.width)
    return 2 + 2 * hops + 1
