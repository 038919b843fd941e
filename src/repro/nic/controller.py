"""Network interface controllers (Sec. 3.4, Figure 4).

A NIC sits between the cache controller (AMBA ACE-style channels in the
chip; plain callbacks here) and the networks.  It is *delivery* plus one
*ordering discipline*, and the discipline is the class:

* :class:`NetworkInterface` — the delivery half every variant shares.
  Coherence requests become single-flit GO-REQ packets, responses
  UO-RESP unicasts (multi-flit when carrying data), injected through a
  *lane* — the :class:`~repro.noc.vc.OutPort` into the LOCAL input port
  of one main network's router, appended by
  :meth:`~NetworkInterface.attach_router` — and received UO-RESP packets
  forward to the cache controller in any order.  Its discipline is
  none: requests are handed over in arrival order (the directory
  baselines, TokenB).
* :class:`OrderedNetworkInterface` — SCORPIO's discipline on top.  For
  every request injected a notification must later be broadcast; a
  counter tracks how many remain unsent, and at its cap the NIC
  back-pressures new requests.  The NIC pushes: when it injects a
  GO-REQ, and after a window end that leaves it with requests pending
  or a full tracker queue, it calls its ``announce`` hook, and the
  notification network polls it at the next window start for its
  pending count (its field of the bit-vector); at window ends it
  receives the merged vector — a full tracker queue raises the "stop"
  bit, which makes every node discard that window and re-send later.
  GO-REQ packets are held until their SID matches the ESID, enforcing
  the global order.  The tracker decodes a vector when the order moves
  (a push or a consume), and the NIC publishes the result as
  :attr:`~OrderedNetworkInterface.esid` right then; everything that
  needs the expected SID (delivery, the sleep rule, ``idle()``, the
  reserved VCs pointing here, the invariant monitor) reads that field.

A discipline overrides three seams and nothing else on the request path:
``send_request`` wraps the payload and calls :meth:`_enqueue_request`
(the one place a GO-REQ packet is built); :meth:`_accept_request` /
:meth:`_accept_response` park an arrival; and its own
:meth:`_deliver_ordered` policy releases parked requests through
:meth:`_gate_open` and :meth:`_hand_over` (the one place the cache
controller is called, counted and journaled).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.noc.config import NocConfig, NotificationConfig
from repro.noc.packet import Packet, VNet
from repro.noc.router import Router
from repro.noc.routing import LOCAL
from repro.noc.vc import OutPort
from repro.notification.tracker import NotificationTracker
from repro.sim.engine import WAKE_NEVER, Clocked, EventWheel
from repro.sim.stats import StatsRegistry

# Sentinel returned by NetworkInterface._sleep_target: the next cycle's
# step may do observable work, so no quiescence may be declared.
_STAY_AWAKE = object()


class NetworkInterface(Clocked):
    """One node's NIC: delivery, with requests handed to the cache
    controller in arrival order."""

    # Opt-in event journal (repro.sim.journal), installed per instance
    # by attach_observability; class-level None keeps the unattached hot
    # path at one load-and-compare per hook site.
    journal = None

    # The expected SID.  The ordering discipline publishes it after every
    # tracker push and consume, and everything that needs it reads this
    # field.  None here (no global order), so the reserved VCs pointing
    # here admit nothing.
    esid: Optional[int] = None

    def __init__(self, node: int, noc_config: NocConfig,
                 notif_config: NotificationConfig,
                 stats: Optional[StatsRegistry] = None) -> None:
        self.node = node
        self.noc_config = noc_config
        self.notif_config = notif_config
        self.stats = stats or StatsRegistry()

        # Only OrderedNetworkInterface uses the tracker.  It is still
        # constructed here because perf/test_perf.py pins
        # ``notification.calls == 9`` on ``directory-unicast``; moving it
        # is ROADMAP item 1(b), a benchmark PR.
        self.tracker = NotificationTracker(
            noc_config.n_nodes, notif_config.bits_per_core,
            notif_config.tracker_queue_depth)

        # --- send side ---------------------------------------------------
        self._inject_queues: List[Deque[Packet]] = [deque(), deque()]
        # One lane per attached main network, in attach order.
        self._lanes: List[OutPort] = []
        self._sent_requests = 0          # per-source GO-REQ sequence

        # --- receive side ------------------------------------------------
        self._arrivals = EventWheel()
        self._req_fifo: Deque[Tuple[Packet, int, int]] = deque()
        self._resp_queue: Deque[Tuple[Packet, int]] = deque()
        # (cycle, lane, vnet, vc, flits) injection credits coming back.
        self._credit_returns = EventWheel()
        self._request_listeners: List[Callable[[Any, int, int, int], None]] = []
        self._response_listeners: List[Callable[[Any, int], None]] = []
        # Back-pressure from the cache controller: while the gate returns
        # False no request is handed over (see _gate_open).
        self.accept_gate: Optional[Callable[[], bool]] = None
        # Uncore pipelining knob (Sec. 5.3): cycles between deliveries.
        self.service_interval = 1 if noc_config.nic_pipelined else 4
        self._next_service_cycle = 0

    def _clock(self) -> int:
        """The current cycle, read from the engine (valid even while this
        NIC sleeps, and under either kernel)."""
        return self._q_engine.cycle

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach_router(self, router: Router) -> None:
        """Connect to this node's router of one main network; called
        once per mesh, in mesh order."""
        self._lanes.append(OutPort(self.noc_config, router, LOCAL,
                                   self.node))

    def add_request_listener(
            self, fn: Callable[[Any, int, int, int], None]) -> None:
        """fn(payload, sid, order_cycle, arrival_cycle) is called for every
        request the ordering discipline releases, in release order —
        including this node's own.  ``arrival_cycle`` is when the packet
        reached this NIC; ``order_cycle`` is when it was released."""
        self._request_listeners.append(fn)

    def add_response_listener(self, fn: Callable[[Any, int], None]) -> None:
        """fn(payload, cycle) is called for every received response."""
        self._response_listeners.append(fn)

    # ------------------------------------------------------------------
    # Cache-controller facing API
    # ------------------------------------------------------------------

    def can_send_request(self) -> bool:
        """Back-pressure: the request inject queue is bounded."""
        return len(self._inject_queues[VNet.GO_REQ]) < 256

    def send_request(self, payload: Any, dst: Optional[int] = None) -> None:
        """Send a coherence request to the home node *dst*, or broadcast
        it when *dst* is None (HyperTransport-style snoop broadcasts
        from the home directory, TokenB)."""
        self._enqueue_request(payload, dst, self._sent_requests)
        self._sent_requests += 1

    def _enqueue_request(self, payload: Any, dst: Optional[int] = None,
                         seq: int = -1) -> None:
        """Queue *payload* as a single-flit GO-REQ packet."""
        if not self.can_send_request():
            raise RuntimeError(f"NIC {self.node} request queue full")
        self._inject_queues[VNet.GO_REQ].append(
            Packet(vnet=VNet.GO_REQ, src=self.node, dst=dst, sid=self.node,
                   size_flits=1, payload=payload, seq=seq))
        self.wake()
        self.stats.counters["nic.requests_sent"] += 1

    def send_response(self, payload: Any, dst: int,
                      carries_data: bool = True) -> None:
        """Send an unordered response to *dst* (data or ack)."""
        size = self.noc_config.data_flits if carries_data else 1
        packet = Packet(vnet=VNet.UO_RESP, src=self.node, dst=dst,
                        sid=self.node, size_flits=size, payload=payload)
        self._inject_queues[VNet.UO_RESP].append(packet)
        self.wake()
        self.stats.counters["nic.responses_sent"] += 1

    def rvc_eligible(self, sid: int, seq: int) -> bool:
        """The reserved VC serves the global order; without one nothing
        is ever entitled to it."""
        return False

    # ------------------------------------------------------------------
    # Main-network downstream interface (ejection side)
    # ------------------------------------------------------------------

    def deliver_packet(self, packet: Packet, inport: int, vnet: VNet,
                       vc_index: int, arrive_cycle: int) -> None:
        self._arrivals.push(arrive_cycle,
                            (arrive_cycle, packet, vnet, vc_index))
        self.wake(arrive_cycle)

    def queue_credit_release(self, outport: int, vnet: VNet, vc: int,
                             flits: int, cycle: int, lane: int = 0) -> None:
        """Router's LOCAL input VC freed — *lane*'s injection credit
        returns."""
        self._credit_returns.push(cycle, (cycle, lane, vnet, vc, flits))
        self.wake(cycle)

    # ------------------------------------------------------------------
    # Per-cycle behaviour
    # ------------------------------------------------------------------

    def _quiet(self) -> bool:
        """True when this cycle's step can be skipped entirely."""
        queues = self._inject_queues
        return not (self._credit_returns or self._arrivals
                    or self._req_fifo or self._resp_queue
                    or queues[0] or queues[1])

    def step(self, cycle: int) -> None:
        if self._quiet():
            self._enter_quiescence(cycle)
            return   # nothing in flight at this NIC
        # Each phase runs only when its guard holds (_deliver_ordered's
        # is the service cycle).
        if self._credit_returns.min_due <= cycle:
            self._apply_credit_returns(cycle)
        if self._arrivals.min_due <= cycle:
            self._accept_arrivals(cycle)
        if self._next_service_cycle <= cycle:
            self._deliver_ordered(cycle)
        if self._resp_queue:
            self._deliver_responses(cycle)
        queues = self._inject_queues
        if queues[0] or queues[1]:
            self._inject(cycle)
        target = self._sleep_target(cycle)
        if target is not _STAY_AWAKE:
            self.idle_until(target)

    def _enter_quiescence(self, cycle: int) -> None:
        """Nothing in flight: sleep until an inbound event or a new
        injection wakes us (subclasses with self-generated periodic work
        override this — INSO's slot expiry, for example)."""
        self.idle_until(None)

    def _sleep_target(self, cycle: int):
        """After a step's work: the cycle to sleep to (None = until an
        external wake), or ``_STAY_AWAKE`` when next cycle's step may
        act."""
        if self._resp_queue or self._req_fifo:
            return _STAY_AWAKE       # drained per cycle / per-cycle stats
        if not self._inject_blocked():
            return _STAY_AWAKE       # one injection per vnet per cycle
        # Queued future events (already-due ones were consumed by this
        # step); an empty wheel's ``min_due`` is WAKE_NEVER.
        due = min(self._credit_returns.min_due, self._arrivals.min_due)
        return due if due < WAKE_NEVER else None

    def _inject_blocked(self) -> bool:
        """True when every non-empty inject queue is provably stuck
        until a credit event (which wakes us via queue_credit_release)."""
        lane = self._lanes[0]
        for queue in self._inject_queues:
            if queue and lane.select(queue[0]) is not None:
                return False         # head could go next cycle
        return True

    def _apply_credit_returns(self, cycle: int) -> None:
        for _cycle, lane, vnet, vc, flits in \
                self._credit_returns.pop_due(cycle):
            self._lanes[lane].give_back(vnet, vc, flits)

    def _accept_arrivals(self, cycle: int) -> None:
        """Classify the due arrivals, in (due cycle, delivery order)."""
        for arrive_cycle, packet, vnet, vc_index in \
                self._arrivals.pop_due(cycle):
            if vnet == VNet.GO_REQ:
                self._accept_request(cycle, arrive_cycle, packet, vc_index)
            else:
                self._accept_response(cycle, arrive_cycle, packet, vc_index)

    def _accept_request(self, cycle: int, arrive_cycle: int, packet: Packet,
                        vc_index: int) -> None:
        """Park one arrived GO-REQ until :meth:`_deliver_ordered`
        releases it."""
        self._req_fifo.append((packet, vc_index, arrive_cycle))

    def _accept_response(self, cycle: int, arrive_cycle: int, packet: Packet,
                         vc_index: int) -> None:
        self._resp_queue.append((packet, vc_index))

    def _deliver_ordered(self, cycle: int) -> None:
        """Release parked requests to the cache controller — here, the
        oldest arrival."""
        if not self._req_fifo:
            return
        if not self._gate_open():
            return
        packet, vc_index, arrive_cycle = self._req_fifo.popleft()
        self._return_eject_credit(cycle, packet, VNet.GO_REQ, vc_index)
        self._hand_over(cycle, packet, packet.payload, arrive_cycle)

    def _gate_open(self) -> bool:
        """Will the cache controller take a request this cycle?  A
        closed gate counts one stall per cycle it blocks a releasable
        request."""
        if self.accept_gate is not None and not self.accept_gate():
            self.stats.incr("nic.backpressure_stalls")
            return False
        return True

    def _hand_over(self, cycle: int, packet: Packet, payload: Any,
                   arrive_cycle: int) -> None:
        """Give the cache controller *payload*, the request *packet*
        carried (a discipline that wrapped it passes the inner one)."""
        for listener in self._request_listeners:
            listener(payload, packet.sid, cycle, arrive_cycle)
        self.stats.counters["nic.requests_delivered"] += 1
        self._next_service_cycle = cycle + self.service_interval
        journal = self.journal
        if journal is not None:
            journal.record(cycle, f"nic.{self.node}", "order", "delivered",
                           f"pid={packet.pid} sid={packet.sid} "
                           f"waited={cycle - arrive_cycle}")

    def _deliver_responses(self, cycle: int) -> None:
        # Responses are unordered; drain freely (they only pace on the
        # shared service interval when the uncore is not pipelined).
        while self._resp_queue:
            if not self.noc_config.nic_pipelined \
                    and cycle < self._next_service_cycle:
                break
            packet, vc_index = self._resp_queue.popleft()
            self._return_eject_credit(cycle, packet, VNet.UO_RESP, vc_index)
            for listener in self._response_listeners:
                listener(packet.payload, cycle)
            self.stats.counters["nic.responses_delivered"] += 1
            if not self.noc_config.nic_pipelined:
                self._next_service_cycle = cycle + self.service_interval

    def _return_eject_credit(self, cycle: int, packet: Packet, vnet: VNet,
                             vc_index: int) -> None:
        """This NIC is done with *packet*: its credits go home over the
        lane whose router ejected it (a multi-mesh NIC picks which)."""
        self._lanes[0].return_credits(cycle, vnet, vc_index,
                                      packet.size_flits)

    def _pick_lane(self, packet: Packet) -> OutPort:
        """The port *packet* injects through.  Asked once per non-empty
        vnet queue per :meth:`_inject` visit, whether or not the head
        then goes (the multi-mesh response round-robin advances per
        ask)."""
        return self._lanes[0]

    def _request_injected(self) -> None:
        """Called once per GO-REQ injected; a discipline that counts its
        injected requests overrides it."""

    def _inject(self, cycle: int) -> None:
        for vnet in VNet:
            queue = self._inject_queues[vnet]
            if not queue:
                continue
            packet = queue[0]
            lane = self._pick_lane(packet)
            # Point-to-point ordering and credits at the injection port.
            vc = lane.select(packet)
            if vc is None:
                continue
            queue.popleft()
            packet.inject_cycle = cycle
            if hasattr(packet.payload, "stamp"):
                packet.payload.stamp("inject", cycle)
            lane.take(packet, vc)
            if vnet == VNet.GO_REQ:
                self._request_injected()
            lane.send(cycle, packet, vc)
            self.stats.counters["nic.packets_injected"] += 1
            journal = self.journal
            if journal is not None:
                journal.record(cycle, f"nic.{self.node}", "inject",
                               vnet.name,
                               f"pid={packet.pid} dst={packet.dst}")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def idle(self) -> bool:
        return self._quiet()


class OrderedNetworkInterface(NetworkInterface):
    """SCORPIO's NIC: requests are broadcast, announced on the
    notification network and handed over in the global order."""

    # This node's hook on the notification network (the return of
    # NotificationNetwork.attach), called whenever compose_notification
    # may have something to say; None while on no network.
    announce: Optional[Callable[[], None]] = None

    def __init__(self, node: int, noc_config: NocConfig,
                 notif_config: NotificationConfig,
                 stats: Optional[StatsRegistry] = None) -> None:
        super().__init__(node, noc_config, notif_config, stats)
        self.pending_notifications = 0   # announced later, capped
        self._last_announced = 0
        self._enabled = True             # cleared by a merged stop bit
        # Arrived GO-REQs waiting for the ESID, by SID.
        self._held_goreq: Dict[int, Tuple[Packet, int, int]] = {}
        # Consumed requests per sid (sids are node ids), read inline by
        # the reserved VCs pointing here together with ``esid``.
        self.consumed_counts: List[int] = [0] * noc_config.n_nodes
        # (outport, router, port) of every such rVC (ours + the mesh
        # neighbours', on every mesh), filled by attach_router.
        self._rvc_watchers: List[Tuple[OutPort, Router, int]] = []

    def attach_router(self, router: Router) -> None:
        super().attach_router(router)
        if self.noc_config.reserved_vc:
            self._rvc_watchers.extend(router.rvc_watchers())

    # ------------------------------------------------------------------
    # Cache-controller facing API
    # ------------------------------------------------------------------

    def can_send_request(self) -> bool:
        """Back-pressure: the pending-notification counter has a cap."""
        return (self.pending_notifications
                + len(self._inject_queues[VNet.GO_REQ])
                < self.notif_config.max_pending)

    def send_request(self, payload: Any, dst: Optional[int] = None) -> None:
        """Broadcast a coherence request; *dst* must be None."""
        if dst is not None:
            raise ValueError("ordered requests are broadcast; dst must be None")
        super().send_request(payload)

    def _request_injected(self) -> None:
        self.pending_notifications += 1
        if self.announce is not None:
            self.announce()

    def rvc_eligible(self, sid: int, seq: int) -> bool:
        """May the *seq*-th request from *sid* occupy the reserved VC of a
        port pointing at this node?

        Per the paper's deadlock-freedom proof, the rVC must admit any
        request at or above the priority of this node's expected request:
        either this NIC has already consumed it (a transit copy bound for
        nodes further along the broadcast tree — strictly earlier in the
        global order than anything still pending here), or it is exactly
        the request the ESID is waiting for.

        The definition: routers read the second case inline from
        :attr:`esid` and :attr:`consumed_counts` (OutPort's docstring).
        """
        consumed = self.consumed_counts[sid]
        if seq < consumed:
            return seq >= 0
        return seq == consumed and self.esid == sid

    def _note_order_progress(self) -> None:
        """Ordering advanced (tracker push or ESID consume): publish the
        expected SID and poke the routers with it parked on a free rVC."""
        sid = self.esid = self.tracker.current_esid()
        if sid is not None:
            for out, router, port in self._rvc_watchers:
                if sid in out.rvc_wait and out.rvc_free:
                    router.note_order_progress(port)

    # ------------------------------------------------------------------
    # Notification network hooks
    # ------------------------------------------------------------------

    def compose_notification(self) -> int:
        """Pulled at each window start; returns this node's vector."""
        if self.tracker.queue_full:
            # Suppress everyone until our queue drains.
            return 1 << (self.noc_config.n_nodes
                         * self.notif_config.bits_per_core)
        if not self._enabled:
            return 0
        count = min(self.pending_notifications,
                    self.notif_config.max_requests_per_window)
        if count == 0:
            return 0
        self.pending_notifications -= count
        self._last_announced = count
        return count << (self.node * self.notif_config.bits_per_core)

    def receive_merged_notification(self, vector: int) -> None:
        """Sink called at each window end with the merged vector."""
        stop_bit = self.noc_config.n_nodes * self.notif_config.bits_per_core
        if vector >> stop_bit & 1:
            # Some tracker queue is full: everyone ignores this window and
            # re-announces later.
            self.pending_notifications += self._last_announced
            self._last_announced = 0
            self._enabled = False
            self.stats.incr("nic.windows_stopped")
            journal = self.journal
            if journal is not None:
                journal.record(self._clock(), f"nic.{self.node}", "notif",
                               "window-stopped",
                               f"reannounce={self.pending_notifications}")
            return
        self._enabled = True
        self._last_announced = 0
        core_bits = vector & ((1 << stop_bit) - 1)
        if core_bits:
            self.tracker.push(core_bits)
            # The ESID may now match a held request: resume ticking (a
            # NIC blocked on the global order sleeps between windows),
            # and re-ask any router whose rVC was waiting on our order.
            self.wake()
            self._note_order_progress()
        if self.announce is not None and (self.pending_notifications
                                          or self.tracker.queue_full):
            self.announce()

    # ------------------------------------------------------------------
    # Receive side: hold until the ESID comes up
    # ------------------------------------------------------------------

    def _quiet(self) -> bool:
        return not self._held_goreq and super()._quiet()

    def _sleep_target(self, cycle: int):
        """The base rule plus the dominant case, the ordered-delivery
        wait: a NIC holding GO-REQs whose ESID has not come up would
        re-check the tracker each cycle to no effect — it moves only on
        a window delivery (which wakes us) or our own consume."""
        if self._resp_queue or self._req_fifo:
            return _STAY_AWAKE       # drained per cycle / per-cycle stats
        wake_at = None
        if self._held_goreq:
            esid = self.esid
            if esid is not None and esid in self._held_goreq:
                if cycle + 1 >= self._next_service_cycle:
                    # Deliverable (or gate-blocked, which counts a stall
                    # per cycle): keep ticking.
                    return _STAY_AWAKE
                wake_at = self._next_service_cycle
            # else: blocked on the global order; receive_merged_
            # notification / deliver_packet wake us.
        queues = self._inject_queues
        if (queues[0] or queues[1]) and not self._inject_blocked():
            return _STAY_AWAKE       # one injection per vnet per cycle
        due = min(self._credit_returns.min_due, self._arrivals.min_due)
        if due < WAKE_NEVER and (wake_at is None or due < wake_at):
            wake_at = due
        return wake_at

    def _accept_request(self, cycle: int, arrive_cycle: int, packet: Packet,
                        vc_index: int) -> None:
        if packet.sid in self._held_goreq:
            raise RuntimeError(
                f"NIC {self.node}: two held requests share SID "
                f"{packet.sid} — point-to-point ordering violated")
        self._held_goreq[packet.sid] = (packet, vc_index, arrive_cycle)

    def _deliver_ordered(self, cycle: int) -> None:
        """Release the request the ESID expects, if it is here."""
        esid = self.esid
        if esid is None or esid not in self._held_goreq:
            return
        if not self._gate_open():
            return
        packet, vc_index, arrive_cycle = self._held_goreq.pop(esid)
        self.tracker.consume_esid()
        self.consumed_counts[esid] += 1
        self._note_order_progress()
        self._return_eject_credit(cycle, packet, VNet.GO_REQ, vc_index)
        self._hand_over(cycle, packet, packet.payload, arrive_cycle)
        histograms = self.stats.histograms
        histograms["nic.order_latency"].add(cycle - packet.inject_cycle)
        histograms["nic.ordering_wait"].add(cycle - arrive_cycle)

    def idle(self) -> bool:
        return (self._quiet() and self.pending_notifications == 0
                and self.esid is None)
