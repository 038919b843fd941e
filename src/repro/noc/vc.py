"""The two ends of a link.

The simulator moves whole packets between routers but accounts buffers and
credits in flits, so a 3-flit UO-RESP data packet really occupies three
buffer slots and three cycles of link bandwidth.

Every input port has the same VCs, laid out by
:meth:`NocConfig.vc_count <repro.noc.config.NocConfig.vc_count>` /
``vc_depth`` / ``reserved_vc_index``; a router keeps one *slot* per input
VC (its slot table: flat per-slot lists of the packet, its pending
outports and its ready cycle).  The upstream sender assigns the
downstream VC during its VC-selection stage, so a slot never holds more
than one packet at a time (VC depth equals the largest packet size of its
virtual network).  Whoever feeds an input port — a router outport, a
NIC's injection lane, a mesh tester — does so through one
:class:`OutPort`, and the credits of a packet that leaves the port go
home through the same record (:meth:`OutPort.return_credits`).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.noc.config import NocConfig
from repro.noc.packet import Packet, VNet

# Link latencies (cycles) from the sender's ST cycle.
FLIT_DELAY = 2                # ST + one link stage -> processed at the far end
LOOKAHEAD_DELAY = 1           # emission -> processed at the far end
# A credit is visible the cycle after it is returned: a router sender
# gets it at the clock edge of the departure cycle (the engine lands it
# after the commit phase), a NIC or tester sender pops it at this delay.
CREDIT_DELAY = 1


class Unbound:
    """The far NIC of an outport no router has bound: it expects nobody.
    A class, so senders pickle it by reference."""
    esid = None


class OutPort:
    """The sending end of one link (Sec. 3.2): everything an output port
    keeps about the input port it feeds, and the hand-off to it.

    Side by side over the same VCs sit the credits of the far input
    port and the SID tracker table — downstream VC -> SID
    of the GO-REQ packet occupying it.  Requests from one source must not
    overtake each other (global ordering identifies a request by source
    ID alone), so while any entry with SID ``s`` is live no further
    packet with SID ``s`` may leave through this port; the entry clears
    when the VC's credits are all back.

    State is flat per-vnet lists indexed by ``int(vnet)`` (``VNet`` is an
    IntEnum).  ``free_mask[vnet]`` has bit ``i`` set iff normal VC ``i``
    holds all its credits; it and ``rvc_free`` (the reserved VC, which is
    not in the mask, holds all of its) are what the router's SA-I scan
    reads.  Only :meth:`take` and :meth:`give_back` move any of it.

    The reserved VC admits only the request the far NIC (``far_nic``,
    bound by a router) expects (Sec. 3.2).  A GO-REQ waiting for this
    port has not reached that NIC, so its ``seq`` is never below the
    NIC's consumed count for its source, and ``rvc_eligible`` reduces to
    what :meth:`select` and the router's scan read inline from the NIC's
    published state: ``esid == sid and consumed_counts[sid] == seq``.
    ``rvc_wait`` (SID -> the owning router's slots parked on this rVC)
    lets the NIC poke the router only for the SID it now expects.

    One record serves both directions of a link: flits leave through
    :meth:`send`, and the credits of a packet that left *this* end's
    input port go back to the far end through :meth:`return_credits`.
    """

    def __init__(self, config: NocConfig, endpoint: object, far_port: int,
                 node: int) -> None:
        # The far end: *endpoint* offers deliver_packet /
        # queue_credit_release — and, when lookaheads are on,
        # deliver_hop — and sits at *node*; our flits arrive on its
        # *far_port*.
        self.endpoint = endpoint
        self.far_port = far_port
        self.node = node
        self.lookaheads = config.lookahead_bypass
        self.far_nic = Unbound
        self.rvc_wait: Dict[int, int] = {}        # sid -> slot mask
        self.rvc: Optional[int] = (config.reserved_vc_index()
                                   if config.reserved_vc else None)
        self.depth: List[int] = [config.vc_depth(vnet) for vnet in VNet]
        self.credits: List[List[int]] = [
            [self.depth[vnet]] * config.vc_count(vnet) for vnet in VNet]
        self.free_mask: List[int] = [     # normal VCs: the rVC is not in it
            (1 << config.goreq_vcs) - 1,
            (1 << config.vc_count(VNet.UO_RESP)) - 1]
        self.rvc_free = config.reserved_vc
        self.sid_of_vc: Dict[int, int] = {}
        self.sid_count: Dict[int, int] = {}

    def select(self, packet: Packet) -> Optional[int]:
        """VC selection (VS): the far VC *packet* may take now, or None.

        A GO-REQ whose SID is still in flight here gets nothing; else
        the lowest free normal VC; else the reserved VC when it is free
        and the far NIC expects exactly this request (the
        deadlock-avoidance rule; see the class docstring).
        """
        vnet = packet.vnet
        if vnet == VNet.GO_REQ and packet.sid in self.sid_count:
            return None
        mask = self.free_mask[vnet]
        if mask:
            return (mask & -mask).bit_length() - 1
        if vnet == VNet.GO_REQ and self.rvc_free:
            nic, sid = self.far_nic, packet.sid
            if nic.esid == sid and nic.consumed_counts[sid] == packet.seq:
                return self.rvc
        return None

    def take(self, packet: Packet, vc: int) -> None:
        """*packet* was granted far *vc*: spend its credits and, for a
        GO-REQ, enter its SID in the table."""
        vnet = packet.vnet
        goreq = vnet == VNet.GO_REQ
        credits = self.credits[vnet]
        held = credits[vc] - packet.size_flits
        if held < 0:
            raise RuntimeError(
                f"credit underflow on {vnet.name} vc {vc}: "
                f"{credits[vc]} < {packet.size_flits}")
        if goreq and vc in self.sid_of_vc:
            raise RuntimeError(
                f"VC {vc} already tracked (sid {self.sid_of_vc[vc]})")
        credits[vc] = held
        if goreq:
            self.sid_of_vc[vc] = sid = packet.sid
            self.sid_count[sid] = self.sid_count.get(sid, 0) + 1
            if vc == self.rvc:
                self.rvc_free = False
                return
        self.free_mask[vnet] &= ~(1 << vc)

    def give_back(self, vnet: VNet, vc: int, flits: int) -> Optional[int]:
        """*flits* credits of far *vc* returned (the packet left that
        input port, or a stale pre-allocation was rolled back).  Returns
        the SID whose last table entry this retired, if any."""
        credits = self.credits[vnet]
        held = credits[vc] + flits
        if held > self.depth[vnet]:
            raise RuntimeError(f"credit overflow on {vnet.name} vc {vc}")
        credits[vc] = held
        if held < self.depth[vnet]:
            return None
        retired = None
        if vnet == VNet.GO_REQ:
            sid = self.sid_of_vc.pop(vc)
            remaining = self.sid_count[sid] - 1
            if remaining:
                self.sid_count[sid] = remaining
            else:
                del self.sid_count[sid]
                retired = sid
            if vc == self.rvc:
                self.rvc_free = True
                return retired
        self.free_mask[vnet] |= 1 << vc
        return retired

    def send(self, cycle: int, packet: Packet, vc: int,
             echo: bool = False) -> None:
        """ST: hand *packet* to the link — with lookaheads on, together
        with the hop's one lookahead, due a cycle ahead of it (*echo*:
        the sender is a bypass transit) — in one call on the far end."""
        if self.lookaheads:
            self.endpoint.deliver_hop(cycle, packet, self.far_port, vc, echo)
        else:
            self.endpoint.deliver_packet(packet, self.far_port, packet.vnet,
                                         vc, cycle + FLIT_DELAY)

    def return_credits(self, cycle: int, vnet: VNet, vc: int,
                       flits: int) -> None:
        """A packet left input VC *vc* of this end at *cycle*: its
        *flits* credits are visible to the far end's sender from the
        next cycle on (``CREDIT_DELAY``; a router lands them at this
        cycle's clock edge)."""
        self.endpoint.queue_credit_release(self.far_port, vnet, vc, flits,
                                           cycle + CREDIT_DELAY)

    def in_flight_flits(self) -> int:
        """Flits currently occupying the far input port (depth minus
        held credits, summed over every VC): the backpressure reading of
        the observability sampler.  Pure read of committed state."""
        return sum(depth - held
                   for depth, credits in zip(self.depth, self.credits)
                   for held in credits)
