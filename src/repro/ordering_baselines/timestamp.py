"""Timestamp Snooping (TS) baseline — Martin et al., ASPLOS 2000.

TS extends snoopy coherence to unordered interconnects by tagging every
request with a logical *ordering time* (OT) at injection and reordering at
the destinations: each node holds arrivals in a reorder buffer and only
processes a request once its *guaranteed time* (GT) has advanced past the
request's OT — i.e. once no request with a smaller OT can still arrive.
Requests with equal OT are tie-broken by source ID, so every node derives
the same total order.

The OT is the injection cycle plus a *slack* that must cover the
worst-case delivery latency; because the chip is synchronous (the same
property SCORPIO's notification windows rely on), a request with OT = t
is then guaranteed to have arrived everywhere by cycle t, and each node's
GT is simply its local clock.  A request that arrives *after* its OT has
passed is a slack violation: it is counted (``ts.late_arrivals``) and
delivered immediately — a real TS system would need a retry mechanism —
but with slack above the delivery tail none occur.

The reason the SCORPIO paper rejects TS (Sec. 2) is buffer cost: the
destination reorder buffer must hold every in-flight request in the
current OT window — it "linearly scales with the number of cores and
maximum outstanding requests per core" (36 cores x 2 outstanding = 72
buffers per node).  This model keeps per-node peak-occupancy statistics
(``ts.reorder_peak``) so that the critique is measurable, not just cited.

:class:`TimestampNetworkInterface` is the arrival-order
:class:`~repro.nic.controller.NetworkInterface` with the three request
seams overridden: requests are sent wrapped with their OT, parked in the
reorder buffer on arrival, and released in ascending (OT, SID) order
once GT has passed them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.nic.controller import _STAY_AWAKE, NetworkInterface
from repro.noc.config import NocConfig, NotificationConfig
from repro.noc.packet import Packet, VNet
from repro.sim.stats import StatsRegistry


@dataclass
class TimestampedPayload:
    """A coherence request wrapped with its ordering time."""

    ot: int                      # logical ordering time
    seq: int                     # per-source sequence (p2p ordering)
    inner: Any

    def stamp(self, name: str, cycle: int) -> None:
        if hasattr(self.inner, "stamp"):
            self.inner.stamp(name, cycle)


class TimestampNetworkInterface(NetworkInterface):
    """NIC variant implementing TS destination reordering.

    ``slack`` is the OT headroom added at injection; it must be at least
    the worst-case request delivery latency (network traversal plus any
    injection queueing) or requests arrive "late", after GT passed their
    OT.
    """

    def __init__(self, node: int, noc_config: NocConfig,
                 notif_config: NotificationConfig,
                 stats: Optional[StatsRegistry] = None,
                 slack: int = 60) -> None:
        if slack <= 0:
            raise ValueError("slack must be positive")
        super().__init__(node, noc_config, notif_config, stats)
        self.slack = slack
        self.n_nodes = noc_config.n_nodes
        self._seq = 0
        # Destination reorder buffer: (ot, sid, seq) -> (packet, arrival).
        self._reorder: Dict[Tuple[int, int, int], Tuple[Packet, int]] = {}
        self._reorder_peak = 0

    # ------------------------------------------------------------------
    # Send side: tag requests with OT = now + slack
    # ------------------------------------------------------------------

    def send_request(self, payload: Any, dst: Optional[int] = None) -> None:
        if dst is not None:
            raise ValueError("TS requests are always broadcast")
        self._enqueue_request(TimestampedPayload(
            ot=self._clock() + self.slack, seq=self._seq, inner=payload))
        self._seq += 1

    # ------------------------------------------------------------------
    # Receive side: reorder buffer drained in ascending (OT, SID) order
    # ------------------------------------------------------------------

    def _accept_request(self, cycle: int, arrive_cycle: int, packet,
                        vc_index: int) -> None:
        payload = packet.payload
        # Like the INSO model, destination buffers are the very overhead
        # under study: hold the packet outside the network and return
        # the credit immediately, then count how many are held.
        self._return_eject_credit(cycle, packet, VNet.GO_REQ, vc_index)
        if payload.ot < cycle:
            self.stats.incr("ts.late_arrivals")
        key = (payload.ot, packet.sid, payload.seq)
        self._reorder[key] = (packet, arrive_cycle)
        if len(self._reorder) > self._reorder_peak:
            self._reorder_peak = len(self._reorder)
            self.stats.set_gauge(f"ts.reorder_peak.node{self.node}",
                                 self._reorder_peak)

    def _deliver_ordered(self, cycle: int) -> None:
        while self._reorder:
            if cycle < self._next_service_cycle:
                return
            key = min(self._reorder)
            ot, _sid, _seq = key
            if ot >= cycle:
                return   # a smaller-OT request could still arrive
            if not self._gate_open():
                return
            packet, arrive_cycle = self._reorder.pop(key)
            self._hand_over(cycle, packet, packet.payload.inner,
                            arrive_cycle)
            self.stats.observe("nic.ordering_wait", cycle - arrive_cycle)

    # ------------------------------------------------------------------

    def _quiet(self) -> bool:
        return super()._quiet() and not self._reorder

    def _sleep_target(self, cycle: int):
        if self._reorder:
            # Reordered requests mature against the wall clock (GT = the
            # local cycle), not against an event we could be woken by.
            return _STAY_AWAKE
        return super()._sleep_target(cycle)

    def reorder_peak(self) -> int:
        """Largest number of requests simultaneously held for reordering."""
        return self._reorder_peak
