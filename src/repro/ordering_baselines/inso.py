"""INSO (In-Network Snoop Ordering) baseline — Agarwal et al., HPCA 2009.

INSO pre-assigns every request a distinct *snoop order*: order ``o``
belongs to node ``o mod N``, so node ``n`` owns slots ``n, n+N, n+2N,…``.
Every node processes requests in ascending snoop order; a slot whose
owner sent no request must be *expired* by that owner before the rest of
the system can move past it.  Owners broadcast expiry messages every
``expiration_window`` cycles, so a small window wastes bandwidth on
expiries while a large window stalls everyone on idle nodes' slots —
exactly the trade-off Figure 7 of the SCORPIO paper measures (and why
SCORPIO beats INSO at practical window sizes).

This implementation swaps SCORPIO's notification-network ordering for
slot ordering inside the NIC; the main network, caches and protocol are
untouched, matching the paper's "all conditions equal besides the ordered
network" methodology.  :class:`InsoNetworkInterface` is the arrival-order
:class:`~repro.nic.controller.NetworkInterface` with the three request
seams overridden: requests are sent wrapped with their slot, parked by
slot on arrival, and released in ascending slot order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.nic.controller import _STAY_AWAKE, NetworkInterface
from repro.noc.config import NocConfig, NotificationConfig
from repro.noc.packet import Packet, VNet
from repro.sim.engine import EventWheel
from repro.sim.stats import StatsRegistry


@dataclass
class OrderedPayload:
    """A coherence request wrapped with its assigned snoop order."""

    slot: int
    inner: Any

    def stamp(self, name: str, cycle: int) -> None:
        if hasattr(self.inner, "stamp"):
            self.inner.stamp(name, cycle)


class InsoNetworkInterface(NetworkInterface):
    """NIC variant implementing INSO's distributed slot ordering."""

    def __init__(self, node: int, noc_config: NocConfig,
                 notif_config: NotificationConfig,
                 stats: Optional[StatsRegistry] = None,
                 expiration_window: int = 20,
                 expiry_batch: int = 2) -> None:
        super().__init__(node, noc_config, notif_config, stats)
        self.expiration_window = expiration_window
        # How many rounds of own slots one expiry message covers.  INSO
        # expires unused snoop orders lazily; small batches model the
        # per-slot expiry cost, large ones idealize it away.
        self.expiry_batch = expiry_batch
        self.n_nodes = noc_config.n_nodes
        self._my_next_slot = node             # smallest unused own slot
        self._expected_slot = 0               # global delivery frontier
        self._held_by_slot: Dict[int, Tuple[Packet, int]] = {}
        self._expiry_frontier: Dict[int, int] = {n: -1
                                                 for n in range(self.n_nodes)}
        self._next_expiry_cycle = expiration_window
        # In-network expiry: INSO routers expire snoop orders in place, so
        # expiries do not travel end-to-end like coherence requests.  We
        # model them as frontier updates with a diameter-bounded latency
        # and count the messages for the bandwidth-overhead metric.
        self.peers: list = [self]
        self.expiry_latency = (noc_config.width - 1) + (noc_config.height - 1) + 1
        self._future_frontiers = EventWheel()
        self._recent_used: list = []          # own slots not yet expired-past
        # Per owner, the slots at or above the delivery frontier known
        # to carry a request: wait for those instead of skipping them.
        self._known_used: Dict[int, set] = {n: set()
                                            for n in range(self.n_nodes)}

    # ------------------------------------------------------------------
    # Send side: wrap requests with their snoop order
    # ------------------------------------------------------------------

    def send_request(self, payload: Any, dst: Optional[int] = None) -> None:
        if dst is not None:
            raise ValueError("INSO requests are always broadcast")
        slot = self._my_next_slot
        self._enqueue_request(OrderedPayload(slot=slot, inner=payload))
        self._my_next_slot += self.n_nodes
        self._recent_used.append(slot)

    def _broadcast_expiry(self, cycle: int) -> None:
        # Expire every own slot up to a horizon ahead of the local
        # delivery frontier, so an idle node stalls the system for at most
        # one expiration window (plus delivery) regardless of how far
        # ahead busy nodes' slot counters have run.
        horizon = self._expected_slot + self.n_nodes * self.expiry_batch
        through = max(self._my_next_slot, horizon)
        base = through + 1
        self._my_next_slot = base + (self.node - base) % self.n_nodes
        used = tuple(s for s in self._recent_used if s <= through)
        self._recent_used = [s for s in self._recent_used if s > through]
        when = cycle + self.expiry_latency
        for peer in self.peers:
            peer._future_frontiers.push(when, (self.node, through, used))
            peer.wake(when)
        self.stats.incr("inso.expiry_messages")

    # ------------------------------------------------------------------
    # Receive side: deliver strictly by ascending snoop order
    # ------------------------------------------------------------------

    def _accept_request(self, cycle: int, arrive_cycle: int, packet,
                        vc_index: int) -> None:
        # INSO destinations need buffers proportional to the reorder
        # window (the very overhead Sec. 2 criticizes); we model them as
        # unbounded and return network credits immediately, which if
        # anything favours INSO.
        self._return_eject_credit(cycle, packet, VNet.GO_REQ, vc_index)
        self._held_by_slot[packet.payload.slot] = (packet, arrive_cycle)

    def _deliver_ordered(self, cycle: int) -> None:
        while True:
            if cycle < self._next_service_cycle:
                return
            slot = self._expected_slot
            held = self._held_by_slot.get(slot)
            owner = slot % self.n_nodes
            if held is not None:
                if not self._gate_open():
                    return
                packet, arrive_cycle = self._held_by_slot.pop(slot)
                self._known_used[owner].discard(slot)
                self._hand_over(cycle, packet, packet.payload.inner,
                                arrive_cycle)
                self.stats.observe("nic.ordering_wait", cycle - arrive_cycle)
                self._expected_slot += 1
                continue
            if self._expiry_frontier[owner] >= slot \
                    and slot not in self._known_used[owner]:
                self._expected_slot += 1   # expired slot: skip for free
                self.stats.incr("inso.slots_expired")
                continue
            return   # blocked: slot unexpired, or used and still in flight

    # ------------------------------------------------------------------
    # Per-cycle: add the periodic expiry broadcasts
    # ------------------------------------------------------------------

    def _quiet(self) -> bool:
        return (super()._quiet() and not self._held_by_slot
                and not self._future_frontiers)

    def _enter_quiescence(self, cycle: int) -> None:
        # INSO is never fully quiescent: slot expiry is periodic
        # self-generated work, so sleep only up to the next expiry
        # broadcast.
        self.idle_until(self._next_expiry_cycle)

    def _sleep_target(self, cycle: int):
        if self._held_by_slot or self._future_frontiers:
            # Slot waits interleave gate checks and expiry skipping with
            # per-cycle stats; stay conservative.
            return _STAY_AWAKE
        target = super()._sleep_target(cycle)
        if target is _STAY_AWAKE:
            return _STAY_AWAKE
        cap = self._next_expiry_cycle
        return cap if target is None else min(target, cap)

    def step(self, cycle: int) -> None:
        if cycle >= self._next_expiry_cycle:
            self._next_expiry_cycle = cycle + self.expiration_window
            if not self._inject_queues[VNet.GO_REQ]:
                self._broadcast_expiry(cycle)
        for node, through, used in self._future_frontiers.pop_due(cycle):
            if through > self._expiry_frontier[node]:
                self._expiry_frontier[node] = through
            # Only the expected slot is ever looked up, and the frontier
            # only rises.
            self._known_used[node].update(
                s for s in used if s >= self._expected_slot)
        super().step(cycle)

    def idle(self) -> bool:
        return False   # INSO never quiesces (it keeps expiring slots)
