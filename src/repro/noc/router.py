"""The SCORPIO main-network router (Sec. 3.2 of the paper).

Pipeline model
--------------
The fabricated router has three stages — BW+SA-I, SA-O+VS, ST — plus a
one-stage link, with *lookahead bypassing* collapsing the router to a
single stage when a lookahead pre-allocates the crossbar, and
*single-cycle multicast* forking broadcast flits through several output
ports at once.

This simulator arbitrates once per packet (standing in for the SA-I/SA-O
pair) with timing calibrated to the paper's stage counts:

* buffered path: a packet arriving at cycle ``t`` may win arbitration at
  ``t+2`` (BW/SA-I at ``t``, SA-O/VS at ``t+1``, ST at ``t+2``) and is
  delivered to the next router at ``t+4`` — 3 router stages + 1 link.
* bypass path: a lookahead processed at cycle ``v`` pre-allocates the
  crossbar for its packet arriving at ``v+1``; the packet then performs
  only ST and is delivered to the next router at ``v+3`` — 1 router
  stage + 1 link.

Priorities follow the paper: buffered packets in reserved VCs beat
lookaheads, which beat normal buffered packets; ties resolve by rotating
priority.  Point-to-point ordering is enforced with per-output-port SID
trackers, and deadlock avoidance uses one reserved VC (rVC) per input
port, assignable only to the request whose SID equals the ESID of the NIC
attached to the downstream router.

One lookahead per flit-hop
--------------------------
A hop's lookahead has one sender: :meth:`OutPort.send
<repro.noc.vc.OutPort.send>` (ST) hands it over with the flit it
announces, due a cycle before it, in one :meth:`Router.deliver_hop` —
from a router outport and from a NIC's injection lane alike; the bypass
grant sends nothing.  A lone lookahead is the common case and runs
table-driven: ``_unicast_route[dst]`` / ``_bcast_route[inport]``,
``out[port]`` for both directions of a link, and a sole-requester
rotation per arbiter.

The pinned outcomes come from a model that sent a bypassing flit's
lookahead twice.  The extra copy named the same inport, so the other
overwrote it: it never won or moved an arbiter, and left one
``noc.la.lost_arbitration`` tick where its route was non-empty (on an
INCF mesh, one more filter evaluation too).  So a lookahead sent by a
bypass transit carries ``echo=True`` and its receiver books both without
simulating the copy; ``la_echoes`` (stats *meta* channel) counts them:
``noc.la.lost_arbitration - router.la_echoes`` are the real conflicts.

Event scheduling
----------------
Arrivals and lookaheads queue in :class:`~repro.sim.engine.EventWheel`
buckets, so an awake router touches only the events due this cycle.  A
credit coming home is no event of the router's: a credit is visible the
cycle after it is returned (``CREDIT_DELAY``), so the engine lands it at
the clock edge (:meth:`Router.queue_credit_release`) and wakes the router
only when the return released a waiter.  Buffered packets are arbitrated
*wake-by-event*.  Every input VC is a *slot* — bit ``inport * stride +
slot`` of the router-wide masks and index ``inport * stride + slot`` of
the flat slot lists, ``stride`` VCs per port from the config — and SA-I
scans only the slots in the *dirty* mask.  Request lines are int masks
too.  A scan that finds no requestable outport takes the slot out of the
dirty mask and parks it under the one event that can lift each refusal:

* outport busy (``port_free_at``) or head not through BW yet
  (``_slot_ready``) — the retry wheel, popped at that cycle;
* same SID still in flight on the outport — ``_sid_wait[port][sid]``,
  released when the SID tracker retires its last entry for that SID;
* no free downstream VC — ``_vc_wait[vnet][port]``, released by a
  credit that is still unclaimed once this cycle's lookaheads (which
  outrank normal buffered packets) have been served; packets sitting in
  a reserved VC outrank lookaheads and are released as the credit lands;
* only the reserved VC could take it and the downstream NIC does not
  expect it — ``out[port].rvc_wait[sid]`` as well; when the rVC frees,
  or that NIC moves on to a SID parked there
  (:meth:`Router.note_order_progress`), only the expected SID's entry is
  read, and only its slots that still wait for *port* are woken.

A parked slot's request line is provably False until one of its events
fires (every refusal condition is monotonic between them), and an
all-False request vector never rotates an arbiter, so request vectors,
grants and therefore every cycle equal the scan-everything router; the
differential suite enforces it.  Stale registrations are harmless — a
scan is a pure function of committed state.  A router with nothing dirty
sleeps until its next queued arrival, lookahead or retry.  Credits, SID
table and the availability flags the scan reads live in ``out[port]`` (one
:class:`~repro.noc.vc.OutPort` per link) and move only through its
``take`` / ``give_back``; every return goes through
:meth:`Router._release_credit`, which owns the credit-side wake-ups.
A packet leaving input VC (p, vnet, vc) sends its credits home through
``out[p].return_credits``.  The bypass grant takes nothing until every
outport it asks for has passed, so a refused grant moves no state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.noc.arbiter import RotatingPriorityArbiter
from repro.noc.config import NocConfig
from repro.noc.packet import Packet, VNet
from repro.noc.routing import (DIRECTIONS, LOCAL, broadcast_route_table,
                               opposite, unicast_route_table)
from repro.noc.vc import FLIT_DELAY, LOOKAHEAD_DELAY, OutPort
from repro.sim.engine import WAKE_NEVER, Clocked, EventWheel
from repro.sim.stats import StatsRegistry

# Pipeline latency constants (cycles), per the module docstring.
BUFFERED_PIPELINE_DELAY = 2   # arrival -> earliest arbitration
EJECT_DELAY = 1               # ST cycle -> packet visible at the NIC

# All five router ports, built once: the per-cycle loops below run
# hundreds of thousands of times per simulation.  Ports are small ints
# (0..4), so per-port state lives in flat 5-element lists and a set of
# ports is a 5-bit mask; MASK_PORTS[mask] lists its ports in ascending
# (set-iteration) order, PORT_MASK maps a route's frozenset to its mask.
PORTS = (*DIRECTIONS, LOCAL)
MASK_PORTS = tuple(tuple(port for port in PORTS if mask >> port & 1)
                   for mask in range(1 << len(PORTS)))
PORT_MASK = {frozenset(ports): mask for mask, ports in enumerate(MASK_PORTS)}

# Why a parked slot was put back in front of SA-I (Router.wakeups index).
WAKE_CAUSES = ("credit", "sid", "rvc", "order", "retry")
WAKE_CREDIT, WAKE_SID, WAKE_RVC, WAKE_ORDER, WAKE_RETRY = range(5)


@dataclass(slots=True)
class _BypassGrant:
    arrival_cycle: int
    outports: FrozenSet[int]
    granted_vcs: Dict[int, int]
    inport: int


class Router(Clocked):
    """One mesh router with its five input/output ports."""

    # Opt-in event journal (repro.sim.journal), installed per instance by
    # attach_observability.  A class-level None keeps the unattached hot
    # path at one load-and-compare per hook site and lets checkpoints
    # predating the journal restore cleanly.
    journal = None

    def __init__(self, node: int, config: NocConfig,
                 stats: Optional[StatsRegistry] = None) -> None:
        self.node = node
        self.config = config
        self.stats = stats or StatsRegistry()
        # Slot table: every input VC of the config's layout gets a fixed
        # slot — GO-REQ normal VCs, then UO-RESP VCs (the SA-I
        # request-line order), then the reserved VC, which SA-I never
        # sees.  Slot s of input port p is bit p*stride + s of the dirty /
        # waiter masks below and index p*stride + s of every slot list.
        # (inport, vnet, VC) -> slot is p*stride + _slot_of[vnet][vc]
        # (arrivals); slot -> (inport, vnet, VC) is _slot_link[slot] (the
        # credit return).
        rvc = ([(VNet.GO_REQ, config.reserved_vc_index())]
               if config.reserved_vc else [])
        layout = [(VNet.GO_REQ, vc) for vc in range(config.goreq_vcs)] + [
            (VNet.UO_RESP, vc)
            for vc in range(config.vc_count(VNet.UO_RESP))] + rvc
        self._stride = stride = len(layout)
        self._slot_of: List[List[int]] = [
            [layout.index((vnet, vc)) for vc in range(config.vc_count(vnet))]
            for vnet in VNet]
        self._slot_link: List[Tuple[int, VNet, int]] = [
            (port, vnet, vc) for port in PORTS for vnet, vc in layout]
        # Per slot: its packet (None when free), the outports it has
        # still to leave through (a port mask; the slot frees when the
        # last is served), the earliest cycle its head may arbitrate.
        n_slots = len(self._slot_link)
        self._slot_packet: List[Optional[Packet]] = [None] * n_slots
        self._slot_outports: List[int] = [0] * n_slots
        self._slot_ready: List[int] = [-1] * n_slots
        self._depth: List[int] = [config.vc_depth(vnet) for vnet in VNet]
        # Mask of the reserved-VC slots: the last of each port's.
        self._rvc_slots = sum(1 << (port * stride + stride - 1)
                              for port in PORTS) if rvc else 0

        # Links: port -> the sending end, None while unconnected.  One
        # entry serves both directions: outport p's flits go to its
        # endpoint, and inport p's credits return there through
        # OutPort.return_credits (no lookahead leaves through LOCAL,
        # whose endpoint is the NIC).
        self.out: List[Optional[OutPort]] = [None] * 5
        # Route tables: dst -> outports (XY) and inport -> outports (tree).
        self._unicast_route = unicast_route_table(node, config.width,
                                                  config.height)
        self._bcast_route = broadcast_route_table(node, config.width,
                                                  config.height)
        self.port_free_at: List[int] = [0] * 5

        self._sa_i = [RotatingPriorityArbiter(stride) for _port in PORTS]
        self._sa_o: List[Optional[RotatingPriorityArbiter]] = [None] * 5
        self._la_arb: List[Optional[RotatingPriorityArbiter]] = [None] * 5

        self._arrivals = EventWheel()
        self._lookaheads = EventWheel()
        self._bypass_grants: Dict[int, _BypassGrant] = {}
        self._n_buffered = 0         # occupied slots (occupancy())
        # Wake-by-event state (module docstring): the slots SA-I must
        # scan, and where every other occupied slot is parked.  Plain
        # ints and dicts, so checkpoints carry them with no extra code.
        self._dirty = 0
        self._retries = EventWheel()                 # due cycle -> slot masks
        self._vc_wait: List[Dict[int, int]] = [{}, {}]   # [vnet][port]
        self._sid_wait: List[Dict[int, int]] = [{} for _port in PORTS]
        # (vnet, port) of normal VCs freed this step; their waiters are
        # released once the step's lookaheads have had first pick.
        self._freed: List[Tuple[int, int]] = []
        # Kernel counters for the stats meta channel (never in payloads):
        # slot scans, scans that found the slot blocked, slots woken per
        # cause (indexed by WAKE_CAUSES), and echo ticks booked.
        self.scans = 0
        self.blocked_scans = 0
        self.wakeups: List[int] = [0] * len(WAKE_CAUSES)
        self.la_echoes = 0
        # Optional INCF broadcast filter (repro.noc.filtering); installed
        # by Mesh.set_broadcast_filter on unordered-broadcast systems.
        self.broadcast_filter = None

    # ------------------------------------------------------------------
    # Topology wiring
    # ------------------------------------------------------------------

    def connect(self, port: int, endpoint: object, endpoint_node: int) -> None:
        """Attach *endpoint* (router or NIC) downstream of *port*."""
        self.out[port] = OutPort(self.config, endpoint, opposite(port),
                                 endpoint_node)
        self.port_free_at[port] = 0
        self._sa_o[port] = RotatingPriorityArbiter(5)
        self._la_arb[port] = RotatingPriorityArbiter(5)

    def bind_rvc_direct(self, nics) -> None:
        """Bind each connected outport's reserved VC to the downstream
        node's NIC (*nics* is indexed by node id)."""
        for out in self.out:
            if out is not None:
                out.far_nic = nics[out.node]

    def rvc_watchers(self) -> List[Tuple[OutPort, "Router", int]]:
        """(outport, router, port) of every outport whose reserved VC
        this node's NIC admits to — this router's LOCAL outport plus every
        mesh neighbour's outport pointing here — for its pokes of
        :meth:`note_order_progress`."""
        return [(self.out[LOCAL], self, LOCAL)] + [
            (out.endpoint.out[out.far_port], out.endpoint, out.far_port)
            for out in (self.out[port] for port in DIRECTIONS)
            if out is not None]

    # ------------------------------------------------------------------
    # Interface used by upstream routers / the local NIC
    # ------------------------------------------------------------------

    def deliver_packet(self, packet: Packet, inport: int, vnet: VNet,
                       vc_index: int, arrive_cycle: int) -> None:
        self._arrivals.push(arrive_cycle,
                            (arrive_cycle, packet, inport, vnet, vc_index))
        self.wake(arrive_cycle)

    def deliver_hop(self, cycle: int, packet: Packet, inport: int,
                    vc_index: int, echo: bool = False) -> None:
        """A flit and its lookahead sent (ST) at *cycle* into *inport*'s
        VC *vc_index*: one wake, for the lookahead's cycle."""
        arrive = cycle + FLIT_DELAY
        self._arrivals.push(arrive,
                            (arrive, packet, inport, packet.vnet, vc_index))
        due = cycle + LOOKAHEAD_DELAY
        self._lookaheads.push(due, (packet, inport, echo))
        self.wake(due)

    def queue_credit_release(self, outport: int, vnet: VNet, vc: int,
                             flits: int, cycle: int) -> None:
        """Downstream *vc* of *outport* drained this cycle; its credits
        are visible the next (*cycle*).  Inside a tick the engine lands
        them at the clock edge, waking us only if that releases a
        waiter; outside one they land at once."""
        engine = self._q_engine
        if engine is not None and engine._ticking:
            engine.landings.append((self, outport, vnet, vc, flits))
        elif self._release_credit(outport, vnet, vc, flits):
            self.wake()

    def note_order_progress(self, port: int) -> None:
        """The NIC downstream of *port* now expects a SID parked on its
        free reserved VC: wake (to arbitrate next cycle) if one is let in."""
        if self._admit_rvc_waiters(port, WAKE_ORDER):
            self.wake()

    # ------------------------------------------------------------------
    # Per-cycle behaviour
    # ------------------------------------------------------------------

    def step(self, cycle: int) -> None:
        if self._arrivals.min_due <= cycle:
            self._process_arrivals(cycle)
        if self._retries.min_due <= cycle:
            slots = 0
            for retry in self._retries.pop_due(cycle):
                slots |= retry
            self._dirty |= slots               # _wake_slots, inlined
            self.wakeups[WAKE_RETRY] += slots.bit_count()
        if self._dirty & self._rvc_slots:
            self._arbitrate_reserved(cycle)
        if self._lookaheads.min_due <= cycle:
            self._process_lookaheads(cycle)
        if self._freed:
            # Normal buffered packets rank below lookaheads: a credit a
            # lookahead just claimed must wake nobody.
            for vnet, port in self._freed:
                if self.out[port].free_mask[vnet]:
                    self._wake_slots(self._vc_wait[vnet].pop(port, 0),
                                     WAKE_CREDIT)
            self._freed.clear()
        if self._dirty:
            self._arbitrate_buffered(cycle)
            if self._dirty:
                return      # a slot may still win: arbitrate next cycle
        # Every occupied slot is parked, so the next thing that can
        # happen here is a queued event (each push already woke us for
        # its due cycle; the retry wheel is ours alone, and both kernels
        # must pop it on the same cycle) or a credit landing that
        # releases a waiter (the engine wakes us for it).
        due = min(self._arrivals.min_due, self._lookaheads.min_due,
                  self._retries.min_due)
        self.idle_until(None if due >= WAKE_NEVER else due)

    # -- wake-by-event ---------------------------------------------------

    def _wake_slots(self, slots: int, cause: int) -> None:
        """Put *slots* back in front of SA-I."""
        if slots:
            self._dirty |= slots
            self.wakeups[cause] += slots.bit_count()

    def _admit_rvc_waiters(self, port: int, cause: int) -> int:
        """The reserved VC of *port* is free: wake the slots parked on it
        under the SID the downstream NIC expects that still wait for
        *port* and hold the expected request (returned as a mask)."""
        out = self.out[port]
        sid = out.far_nic.esid
        slots = out.rvc_wait.pop(sid, 0)
        if not slots:
            return 0
        seq = out.far_nic.consumed_counts[sid]
        admitted = refused = 0
        while slots:
            bit = slots & -slots
            slots ^= bit
            slot = bit.bit_length() - 1
            packet = self._slot_packet[slot]
            if packet is None or packet.sid != sid \
                    or not self._slot_outports[slot] >> port & 1:
                continue       # stale: the parked request has gone this way
            if packet.seq == seq:
                admitted |= bit
            else:
                refused |= bit
        if refused:
            out.rvc_wait[sid] = refused
        self._wake_slots(admitted, cause)
        return admitted

    # -- credits --------------------------------------------------------

    def _release_credit(self, port: int, vnet: VNet, vc: int,
                        flits: int) -> int:
        """Downstream *vc* of *port* drained (credit return) or a stale
        pre-allocation was rolled back: release every slot parked on
        it.  Truthy iff it released any — a slot put back in front of
        SA-I, or waiters for the next step to release after the
        lookaheads — so a sleeping router must run next cycle."""
        out = self.out[port]
        released = 0
        sid = out.give_back(vnet, vc, flits)
        if sid is not None:
            released = self._sid_wait[port].pop(sid, 0)
            self._wake_slots(released, WAKE_SID)
        if vnet == VNet.GO_REQ and vc == out.rvc:
            if out.rvc_free and out.far_nic.esid in out.rvc_wait:
                released |= self._admit_rvc_waiters(port, WAKE_RVC)
            return released
        waiters = self._vc_wait[vnet]
        slots = waiters.get(port)
        if slots:
            # Packets in a reserved VC outrank lookaheads: wake them now.
            early = slots & self._rvc_slots
            if early:
                self._wake_slots(early, WAKE_CREDIT)
                waiters[port] = slots ^ early
            self._freed.append((vnet, port))
            return slots
        return released

    # -- arrivals -------------------------------------------------------

    def _process_arrivals(self, cycle: int) -> None:
        due = self._arrivals.pop_due(cycle)
        for _cycle, packet, inport, vnet, vc_index in due:
            grant = self._bypass_grants.pop(packet.pid, None)
            if (grant is not None and grant.arrival_cycle == cycle
                    and grant.inport == inport):
                self._bypass_transit(cycle, packet, inport, vnet, vc_index, grant)
            else:
                if grant is not None:
                    # A pre-allocation whose packet missed its slot.  The
                    # bypass contract makes this unreachable today (the
                    # grant is issued exactly one cycle before a already-
                    # queued arrival), so any hit means a timing-model
                    # change broke that contract: roll the crossbar and
                    # credits back, buffer normally, and count it so the
                    # drift is visible in stats rather than silent.
                    for outport, vc in grant.granted_vcs.items():
                        self._release_credit(outport, vnet, vc,
                                             packet.size_flits)
                    self.stats.incr("router.grants.stale")
                outports = self._route(packet, inport)
                if not outports:
                    # INCF filtered every remaining branch (interest
                    # changed after the upstream decision): the copy dies
                    # here and its buffer credit returns at once.
                    self.out[inport].return_credits(cycle, vnet, vc_index,
                                                    packet.size_flits)
                    self.stats.incr("incf.copies_killed")
                    continue
                slot = inport * self._stride + self._slot_of[vnet][vc_index]
                held = self._slot_packet[slot]
                if held is not None:
                    raise RuntimeError(f"VC overrun by packet {packet.pid} "
                                       f"(holds {held.pid})")
                if packet.size_flits > self._depth[vnet]:
                    raise RuntimeError(
                        f"packet of {packet.size_flits} flits cannot fit VC "
                        f"depth {self._depth[vnet]}")
                self._slot_packet[slot] = packet
                self._slot_outports[slot] = PORT_MASK[outports]
                # First SA-I request once the head is through BW.
                ready = self._slot_ready[slot] = \
                    cycle + BUFFERED_PIPELINE_DELAY
                self._n_buffered += 1
                self._retries.push(ready, 1 << slot)
                self.stats.counters["noc.router.buffered"] += 1
                journal = self.journal
                if journal is not None:
                    journal.record(
                        cycle, f"router.{self.node}", "BW", "buffered",
                        f"pid={packet.pid} inport={inport} "
                        f"vc={vnet.name}/{vc_index}")

    def _bypass_transit(self, cycle: int, packet: Packet, inport: int,
                        vnet: VNet, vc_index: int, grant: _BypassGrant) -> None:
        """The pre-allocated single-cycle path: ST now, skip buffering."""
        for outport in grant.outports:
            self._transmit(cycle, packet, outport, vnet,
                           grant.granted_vcs.get(outport), echo=True)
        # The input VC the upstream reserved is never occupied; return its
        # credits right away.
        self.out[inport].return_credits(cycle, vnet, vc_index,
                                        packet.size_flits)
        self.stats.counters["noc.router.bypassed"] += 1
        journal = self.journal
        if journal is not None:
            journal.record(cycle, f"router.{self.node}", "ST", "bypassed",
                           f"pid={packet.pid} inport={inport}")

    # -- routing --------------------------------------------------------

    def _route(self, packet: Packet, inport: int) -> FrozenSet[int]:
        if packet.dst is None:                   # a broadcast
            outports = self._bcast_route[inport]
            if self.broadcast_filter is not None:
                outports = self.broadcast_filter.prune(self.node, outports,
                                                       packet.payload)
            return outports
        return self._unicast_route[packet.dst]

    # -- reserved-VC packets (highest priority) -------------------------

    def _arbitrate_reserved(self, cycle: int) -> None:
        # One slot at a time, in input-port order: each forward must see
        # the outports and credits the previous one took.
        pending = self._dirty & self._rvc_slots
        slot_packet = self._slot_packet
        while pending:
            bit = pending & -pending
            pending ^= bit
            for slot, ports in self._scan(cycle, bit).items():
                for port in MASK_PORTS[ports]:
                    if slot_packet[slot] is None:
                        break
                    self._forward_through(cycle, slot, port)

    # -- lookahead processing -------------------------------------------

    def _process_lookaheads(self, cycle: int) -> None:
        routed: List[Tuple[tuple, FrozenSet[int]]] = []  # (la, outports)
        echoes = 0
        for la in self._lookaheads.pop_due(cycle):
            packet, inport, echo = la
            outports = self._route(packet, inport)
            if echo and self.broadcast_filter is not None:
                # The second copy was routed too: INCF counts (and a
                # FilterTable learns from) every evaluation.
                outports = self._route(packet, inport)
            if not outports:
                continue   # fully filtered: the arriving flit is dropped
            routed.append((la, outports))
            echoes += echo
        if echoes:
            # The senders' second copies (module docstring): same inport
            # as the first, so each lost to it and moved no arbiter.
            self.la_echoes += echoes
            self.stats.counters["noc.la.lost_arbitration"] += echoes
        if len(routed) == 1:
            # Lone lookahead, the common case: it wins every arbiter it
            # requests, rotating each pointer past its inport.
            (packet, inport, _echo), outports = routed[0]
            for port in outports:
                self._la_arb[port].grant_sole(inport)
            if not self._grant_bypass(cycle, packet, inport, outports):
                self.stats.counters["noc.la.denied"] += 1
        elif routed:
            # Resolve conflicts per output port with rotating priority
            # over input ports; grants are all-or-nothing per lookahead
            # (a partially-granted bypass is a failed bypass).  Of two on
            # one inport (a NIC's two vnets) the later holds the line.
            requests = [0] * 5
            holder: Dict[Tuple[int, int], tuple] = {}
            for la, outports in routed:
                inport = la[1]
                for port in outports:
                    requests[port] |= 1 << inport
                    holder[port, inport] = la
            winners: List[Optional[tuple]] = [None] * 5
            for port in PORTS:
                if requests[port]:
                    winners[port] = holder[
                        port, self._la_arb[port].grant(requests[port])]
            for la, outports in routed:
                if all(winners[port] is la for port in outports):
                    if not self._grant_bypass(cycle, la[0], la[1],
                                              outports):
                        self.stats.counters["noc.la.denied"] += 1
                else:
                    self.stats.counters["noc.la.lost_arbitration"] += 1

    def _grant_bypass(self, cycle: int, packet: Packet, inport: int,
                      outports: FrozenSet[int]) -> bool:
        """Pre-allocate every outport of *packet*'s lookahead for its ST
        next cycle, or none: nothing is taken until each outport has
        passed — free at that cycle, no same-SID packet in flight, a
        downstream VC to select — so a refusal leaves no trace."""
        arrival = cycle + 1
        # The cheap refusals first, inline, before any select call.
        for port in outports:
            if self.port_free_at[port] > arrival:
                return False
            if packet.vnet == VNet.GO_REQ \
                    and packet.sid in self.out[port].sid_count:
                return False
        granted_vcs: Dict[int, int] = {}
        for port in outports:
            vc = granted_vcs[port] = self.out[port].select(packet)
            if vc is None:
                return False
        for port, vc in granted_vcs.items():
            self.out[port].take(packet, vc)
            self.port_free_at[port] = arrival + packet.size_flits
        self._bypass_grants[packet.pid] = _BypassGrant(
            arrival_cycle=arrival, outports=outports,
            granted_vcs=granted_vcs, inport=inport)
        self.stats.counters["noc.la.granted"] += 1
        return True

    # -- buffered arbitration (normal VCs) -------------------------------

    def _arbitrate_buffered(self, cycle: int) -> None:
        # SA-I: one candidate VC per input port, over the dirty slots
        # only (every parked slot's request line is False).  Requestable
        # outports are computed once per slot and reused by SA-O —
        # nothing that feeds the answer changes between the two passes,
        # and SA-O grants re-validate through OutPort.select.
        eligible = self._scan(cycle, self._dirty & ~self._rvc_slots)
        if not eligible:
            return
        stride = self._stride
        lines = 0
        for slot in eligible:
            lines |= 1 << slot
        port_lines = (1 << stride) - 1

        # SA-O: per output port, rotating priority over input ports.
        candidates: List[int] = [0] * 5
        requests = [0] * 5
        for inport in PORTS:
            line = lines >> inport * stride & port_lines
            if not line:
                continue
            slot = candidates[inport] = \
                inport * stride + self._sa_i[inport].grant(line)
            for port in MASK_PORTS[eligible[slot]]:
                requests[port] |= 1 << inport
        slot_packet = self._slot_packet
        for port in PORTS:
            if requests[port]:
                slot = candidates[self._sa_o[port].grant(requests[port])]
                if slot_packet[slot] is not None:  # else fully forwarded
                    self._forward_through(cycle, slot, port)

    def _scan(self, cycle: int, pending: int) -> Dict[int, int]:
        """The SA-I request lines of the dirty slots in *pending*:
        ``{slot: mask of its requestable pending outports}``.  A slot
        with no requestable outport leaves the dirty mask, parked under
        the event that can lift each refusal."""
        eligible: Dict[int, int] = {}
        slot_packet = self._slot_packet
        slot_outports = self._slot_outports
        slot_ready = self._slot_ready
        port_free_at = self.port_free_at
        outs = self.out
        sid_wait, vc_wait = self._sid_wait, self._vc_wait
        has_rvc = self.config.reserved_vc
        scans = blocked = 0
        while pending:
            bit = pending & -pending
            pending ^= bit
            slot = bit.bit_length() - 1
            packet = slot_packet[slot]
            if packet is None or slot_ready[slot] > cycle:
                # Stale wake-up: the slot emptied, or holds a newer
                # packet whose ready-cycle retry is already queued.
                self._dirty &= ~bit
                continue
            scans += 1
            vnet = packet.vnet
            is_goreq = vnet == VNet.GO_REQ
            use_rvc = is_goreq and has_rvc
            sid = packet.sid
            ports = same_sid = no_vc = 0     # port masks: go / refused
            retry = WAKE_NEVER
            for port in MASK_PORTS[slot_outports[slot]]:
                free_at = port_free_at[port]
                if free_at > cycle:
                    if free_at < retry:
                        retry = free_at
                    continue
                out = outs[port]
                if is_goreq and sid in out.sid_count:
                    same_sid |= 1 << port
                elif out.free_mask[vnet] or (
                        use_rvc and out.rvc_free
                        and out.far_nic.esid == sid
                        and out.far_nic.consumed_counts[sid] == packet.seq):
                    ports |= 1 << port
                else:
                    no_vc |= 1 << port
            if ports:
                eligible[slot] = ports
                continue
            blocked += 1
            self._dirty &= ~bit
            if retry < WAKE_NEVER:
                self._retries.push(retry, bit)
            for port in MASK_PORTS[same_sid]:
                waiting = sid_wait[port]
                waiting[sid] = waiting.get(sid, 0) | bit
            if no_vc:
                waiting = vc_wait[vnet]
                for port in MASK_PORTS[no_vc]:
                    waiting[port] = waiting.get(port, 0) | bit
                    if use_rvc:
                        parked = outs[port].rvc_wait
                        parked[sid] = parked.get(sid, 0) | bit
        self.scans += scans
        self.blocked_scans += blocked
        return eligible

    def _forward_through(self, cycle: int, slot: int, port: int) -> None:
        packet = self._slot_packet[slot]
        out = self.out[port]
        downstream_vc = out.select(packet)
        if downstream_vc is None:
            return
        out.take(packet, downstream_vc)
        self.port_free_at[port] = cycle + packet.size_flits
        self._transmit(cycle, packet, port, packet.vnet, downstream_vc)
        pending = self._slot_outports[slot] & ~(1 << port)
        self._slot_outports[slot] = pending
        if not pending:                       # the last fork branch left
            self._slot_packet[slot] = None
            self._n_buffered -= 1
            self._dirty &= ~(1 << slot)
            inport, vnet, index = self._slot_link[slot]
            self.out[inport].return_credits(cycle, vnet, index,
                                            packet.size_flits)

    def _transmit(self, cycle: int, packet: Packet, port: int, vnet: VNet,
                  downstream_vc: int, echo: bool = False) -> None:
        """ST: hand the packet to the link (*echo*: this is a bypass
        transit) or, through LOCAL, to the NIC."""
        if port == LOCAL:
            # Cut-through: the serialization penalty of a multi-flit
            # packet is paid once, when the tail drains at the ejection
            # port (per-hop bandwidth is charged via port-busy time).
            self.out[LOCAL].endpoint.deliver_packet(
                packet, LOCAL, vnet, downstream_vc,
                cycle + EJECT_DELAY + packet.size_flits - 1)
        else:
            self.out[port].send(cycle, packet, downstream_vc, echo)
        self.stats.counters["noc.flits.transmitted"] += packet.size_flits
        journal = self.journal
        if journal is not None:
            journal.record(cycle, f"router.{self.node}", "ST", "transmit",
                           f"pid={packet.pid} outport={port} "
                           f"flits={packet.size_flits}")

    # ------------------------------------------------------------------
    # Introspection (tests / invariant checks)
    # ------------------------------------------------------------------

    def kernel_counters(self) -> Dict[str, int]:
        """Scan, wake-up and echo accounting for the stats *meta* channel:
        how the kernel ran, never part of a result payload."""
        counters = {"scans": self.scans, "blocked_scans": self.blocked_scans,
                    "la_echoes": self.la_echoes}
        for cause, count in zip(WAKE_CAUSES, self.wakeups):
            counters[f"wake_{cause}"] = count
        return counters

    def occupancy(self) -> int:
        """Total packets currently buffered at this router."""
        return self._n_buffered

    def utilization_sample(self) -> Tuple[int, int]:
        """(buffered packets, in-flight flits toward downstream ports):
        the passive reading :class:`~repro.sim.journal.MeshSampler`
        records at sample boundaries.  Committed state only — calling
        this never changes router behaviour or sleep scheduling."""
        return self.occupancy(), sum(out.in_flight_flits()
                                     for out in self.out if out is not None)

    def sid_invariant_holds(self) -> bool:
        """No two buffered GO-REQ packets at one input port share a SID."""
        held = [(inport, packet.sid) for (inport, vnet, _vc), packet
                in zip(self._slot_link, self._slot_packet)
                if vnet == VNet.GO_REQ and packet is not None]
        return len(held) == len(set(held))
