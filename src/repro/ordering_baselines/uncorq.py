"""Uncorq baseline — Strauss et al., MICRO 2007.

Uncorq broadcasts snoop requests on the unordered network and then
circulates a *response message* on a logical ring embedded in the fabric,
collecting the snoop responses of every core.  The ring serializes
conflicting requests to the same line, but (as Sec. 2 of the SCORPIO
paper notes) it does not produce a global order of all requests, and
*write* requests must wait for the ring traversal to complete — a wait
that grows linearly with core count, like a physical ring.  Reads do not
wait: they complete as soon as the data arrives.

The model here keeps the paper's "all conditions equal besides the
ordered network" methodology: the main network, MOSI protocol, caches and
memory controllers are the SCORPIO ones; only the ordering layer changes.
Requests deliver in local arrival order (races fall back to the memory
retry rescue, exactly as the TokenB model does) and every write request
additionally launches a token on :class:`LogicalRing`; the write's
response is held at the requester's NIC until its token returns.
:class:`UncorqNetworkInterface` is therefore the arrival-order
:class:`~repro.nic.controller.NetworkInterface` with two seams
overridden — ``send_request`` launches the token, ``_accept_response``
diverts the held responses — and the request hand-over left alone.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.coherence.messages import CoherenceRequest, ReqKind
from repro.nic.controller import _STAY_AWAKE, NetworkInterface
from repro.noc.config import NocConfig, NotificationConfig
from repro.noc.packet import Packet, VNet
from repro.sim.engine import Clocked
from repro.sim.stats import StatsRegistry


def snake_order(width: int, height: int) -> List[int]:
    """Boustrophedon (snake) traversal of a row-major mesh.

    Consecutive ring stops are mesh neighbours, so each logical hop costs
    one physical link; only the closing edge (back up the first column)
    is longer.
    """
    order: List[int] = []
    for y in range(height):
        row = range(width) if y % 2 == 0 else range(width - 1, -1, -1)
        order.extend(y * width + x for x in row)
    return order


class RingToken:
    """One in-flight response-collection token."""

    __slots__ = ("req_id", "origin", "position", "remaining_stops",
                 "next_hop_cycle", "launch_cycle", "on_complete")

    def __init__(self, req_id: int, origin: int, position: int,
                 remaining_stops: int, next_hop_cycle: int,
                 launch_cycle: int,
                 on_complete: Callable[[int, int], None]) -> None:
        self.req_id = req_id
        self.origin = origin
        self.position = position           # index into the ring order
        self.remaining_stops = remaining_stops
        self.next_hop_cycle = next_hop_cycle
        self.launch_cycle = launch_cycle
        self.on_complete = on_complete


class LogicalRing(Clocked):
    """A bufferless unidirectional ring embedded in the mesh.

    Tokens advance one ring stop every ``hop_latency x distance`` cycles,
    where distance is the Manhattan distance between consecutive stops
    (1 for snake neighbours; longer for the wrap-around edge).  Tokens
    never contend — Uncorq's ring messages are combined switch-side — so
    traversal latency is exactly the sum of the hop costs, which scales
    linearly with node count.
    """

    def __init__(self, noc_config: NocConfig,
                 stats: Optional[StatsRegistry] = None,
                 hop_latency: int = 2) -> None:
        if hop_latency <= 0:
            raise ValueError("hop latency must be positive")
        self.width = noc_config.width
        self.height = noc_config.height
        self.stats = stats or StatsRegistry()
        self.hop_latency = hop_latency
        self.order = snake_order(self.width, self.height)
        self._index_of = {node: i for i, node in enumerate(self.order)}
        self._tokens: List[RingToken] = []

    # ------------------------------------------------------------------

    def _hop_cost(self, position: int) -> int:
        """Cycles for the hop leaving ring index *position*."""
        here = self.order[position]
        there = self.order[(position + 1) % len(self.order)]
        dx = abs(here % self.width - there % self.width)
        dy = abs(here // self.width - there // self.width)
        return self.hop_latency * (dx + dy)

    def traversal_latency(self) -> int:
        """Full-circle latency — the write-wait lower bound."""
        return sum(self._hop_cost(i) for i in range(len(self.order)))

    def launch(self, req_id: int, origin: int, cycle: int,
               on_complete: Callable[[int, int], None]) -> None:
        """Start a token at *origin*; ``on_complete(req_id, cycle)`` fires
        when it has visited every node and returned."""
        position = self._index_of[origin]
        token = RingToken(req_id=req_id, origin=origin, position=position,
                          remaining_stops=len(self.order),
                          next_hop_cycle=cycle + self._hop_cost(position),
                          launch_cycle=cycle, on_complete=on_complete)
        self._tokens.append(token)
        self.wake(token.next_hop_cycle)
        self.stats.incr("uncorq.tokens_launched")

    def in_flight(self) -> int:
        return len(self._tokens)

    def token_positions(self) -> Dict[int, int]:
        """req_id -> current node (introspection for tests)."""
        return {t.req_id: self.order[t.position] for t in self._tokens}

    # ------------------------------------------------------------------

    def step(self, cycle: int) -> None:
        if not self._tokens:
            self.idle_until(None)    # launch() wakes us
            return
        finished: List[RingToken] = []
        for token in self._tokens:
            while token.next_hop_cycle <= cycle and token.remaining_stops:
                hop_start = token.next_hop_cycle
                token.position = (token.position + 1) % len(self.order)
                token.remaining_stops -= 1
                token.next_hop_cycle = hop_start + self._hop_cost(
                    token.position)
            if not token.remaining_stops:
                finished.append(token)
        if finished:
            self._tokens = [t for t in self._tokens
                            if t.remaining_stops]
            for token in finished:
                self.stats.observe("uncorq.ring_latency",
                                   cycle - token.launch_cycle)
                token.on_complete(token.req_id, cycle)
        if self._tokens:
            # Hops mature at known cycles; nothing happens in between.
            self.idle_until(min(t.next_hop_cycle for t in self._tokens))
        else:
            self.idle_until(None)


class UncorqNetworkInterface(NetworkInterface):
    """NIC variant: broadcast requests unordered; writes wait on the ring.

    The write's data/ack response is held here until the ring token for
    that request returns, so the L2 sees the write complete only after
    every core has been snooped — Uncorq's completion condition.
    """

    def __init__(self, node: int, noc_config: NocConfig,
                 notif_config: NotificationConfig,
                 stats: Optional[StatsRegistry] = None,
                 ring: Optional[LogicalRing] = None) -> None:
        super().__init__(node, noc_config, notif_config, stats)
        self.ring = ring
        self._ring_pending: Dict[int, bool] = {}   # req_id -> done?
        self._held_responses: List[Tuple[Packet, int]] = []

    # ------------------------------------------------------------------

    def send_request(self, payload: Any, dst: Optional[int] = None) -> None:
        if dst is not None:
            raise ValueError("Uncorq requests are always broadcast")
        if isinstance(payload, CoherenceRequest) \
                and payload.kind is ReqKind.GETX and self.ring is not None:
            self._ring_pending[payload.req_id] = False
            self.ring.launch(payload.req_id, self.node, self._clock(),
                             self._ring_done)
        super().send_request(payload, dst)

    def _ring_done(self, req_id: int, cycle: int) -> None:
        if req_id in self._ring_pending:
            self._ring_pending[req_id] = True

    def _response_blocked(self, packet: Packet) -> bool:
        payload = packet.payload
        req_id = getattr(payload, "req_id", None)
        if req_id is None or req_id not in self._ring_pending:
            return False
        return not self._ring_pending[req_id]

    def _accept_response(self, cycle: int, arrive_cycle: int, packet,
                         vc_index: int) -> None:
        """Divert responses for ring-pending writes into a side buffer.

        Their network credit returns immediately (the wait happens in the
        NIC, not in router buffers), so held writes cannot starve the
        UO-RESP virtual channels.  Only blocked items emit credits at
        accept time (plain arrivals just enqueue), so handling them
        per-item instead of in a separate pre-pass leaves every queue and
        credit push in the same relative order as before.
        """
        if self._response_blocked(packet):
            self._return_eject_credit(cycle, packet, VNet.UO_RESP, vc_index)
            self._held_responses.append(packet)
            self.stats.incr("uncorq.write_waits")
            return
        super()._accept_response(cycle, arrive_cycle, packet, vc_index)

    def _release_ring_completions(self, cycle: int) -> None:
        if not self._held_responses:
            return
        ready = [p for p in self._held_responses
                 if not self._response_blocked(p)]
        if not ready:
            return
        self._held_responses = [p for p in self._held_responses
                                if self._response_blocked(p)]
        for packet in ready:
            self._ring_pending.pop(packet.payload.req_id, None)
            for listener in self._response_listeners:
                listener(packet.payload, cycle)
            self.stats.incr("nic.responses_delivered")

    def _deliver_responses(self, cycle: int) -> None:
        # A tracked response that was never blocked (ring finished before
        # the data arrived) retires its ring entry on normal delivery.
        for packet, _vc in self._resp_queue:
            req_id = getattr(packet.payload, "req_id", None)
            if req_id is not None and self._ring_pending.get(req_id):
                self._ring_pending.pop(req_id, None)
        super()._deliver_responses(cycle)

    # ------------------------------------------------------------------

    def _quiet(self) -> bool:
        return super()._quiet() and not self._held_responses

    def _sleep_target(self, cycle: int):
        if self._held_responses:
            return _STAY_AWAKE   # released by ring completions
        return super()._sleep_target(cycle)

    def step(self, cycle: int) -> None:
        self._release_ring_completions(cycle)
        super().step(cycle)
