"""Virtual-channel buffers and the sending end of a link.

The simulator moves whole packets between routers but accounts buffers and
credits in flits, so a 3-flit UO-RESP data packet really occupies three
buffer slots and three cycles of link bandwidth.

Each input port of a router (and the packet-facing side of a NIC) owns a
set of :class:`VCBuffer` per virtual network.  The upstream sender assigns
the downstream VC during its VC-selection stage, so a buffer never holds
more than one packet at a time (VC depth equals the largest packet size of
its virtual network).  Whoever feeds an input port — a router outport, a
NIC's injection lane, a mesh tester — does so through one
:class:`OutPort`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Set

from repro.noc.config import NocConfig
from repro.noc.packet import Packet, VNet

# Link latencies (cycles) from the sender's ST cycle.
FLIT_DELAY = 2                # ST + one link stage -> processed at the far end
LOOKAHEAD_DELAY = 1           # emission -> processed at the far end


@dataclass(slots=True)
class VCBuffer:
    """One virtual channel at one input port."""

    vnet: VNet
    index: int
    depth: int
    reserved: bool = False          # True for the rVC (deadlock avoidance)
    packet: Optional[Packet] = None
    pending_outports: Set[int] = field(default_factory=set)
    ready_cycle: int = -1           # earliest cycle the head may arbitrate

    @property
    def occupied(self) -> bool:
        return self.packet is not None

    @property
    def free(self) -> bool:
        return self.packet is None

    def accept(self, packet: Packet, outports: FrozenSet[int], cycle: int,
               pipeline_delay: int) -> None:
        """Buffer *packet* (BW stage); it may arbitrate after the pipeline
        delay (BW/SA-I then SA-O/VS for a 3-stage router)."""
        if self.packet is not None:
            raise RuntimeError(
                f"VC {self.vnet.name}/{self.index} overrun by packet "
                f"{packet.pid} (holds {self.packet.pid})")
        if packet.size_flits > self.depth:
            raise RuntimeError(
                f"packet of {packet.size_flits} flits cannot fit VC depth "
                f"{self.depth}")
        self.packet = packet
        self.pending_outports = set(outports)
        self.ready_cycle = cycle + pipeline_delay

    def complete_outport(self, outport: int) -> bool:
        """Mark *outport* served; returns True when the packet has fully
        left the VC (all fork branches serviced)."""
        self.pending_outports.discard(outport)
        if not self.pending_outports:
            self.packet = None
            return True
        return False


class InputPort:
    """All VC buffers of one vnet-set at one router input port."""

    def __init__(self, goreq_vcs: int, goreq_depth: int, uoresp_vcs: int,
                 uoresp_depth: int, reserved_vc: bool) -> None:
        goreq: List[VCBuffer] = [
            VCBuffer(VNet.GO_REQ, i, goreq_depth) for i in range(goreq_vcs)]
        if reserved_vc:
            goreq.append(VCBuffer(VNet.GO_REQ, goreq_vcs, goreq_depth,
                                  reserved=True))
        uoresp = [VCBuffer(VNet.UO_RESP, i, uoresp_depth)
                  for i in range(uoresp_vcs)]
        self._vcs: Dict[VNet, List[VCBuffer]] = {
            VNet.GO_REQ: goreq, VNet.UO_RESP: uoresp}

    def vcs(self, vnet: VNet) -> List[VCBuffer]:
        return self._vcs[vnet]

    def vc(self, vnet: VNet, index: int) -> VCBuffer:
        return self._vcs[vnet][index]

    def occupied_buffers(self) -> int:
        return sum(1 for vcs in self._vcs.values() for vc in vcs if vc.occupied)

    def all_buffers(self):
        for vcs in self._vcs.values():
            yield from vcs


@dataclass(slots=True)
class Lookahead:
    """Control info sent one cycle ahead of a flit (free wiring: it reuses
    the conventional header fields — Sec. 3.2)."""

    packet: Packet
    inport: int          # input port the packet will arrive on
    echo: bool = False   # the sender bypassed the packet (router docstring)


def rvc_unbound(_sid: int, _seq: int) -> bool:
    """What an outport not yet bound to a NIC answers: the reserved VC
    admits nothing.  A module-level function (not a lambda) so senders
    stay picklable for checkpoints."""
    return False


class OutPort:
    """The sending end of one link (Sec. 3.2): everything an output port
    keeps about the input port it feeds, and the hand-off to it.

    Side by side over the same VCs sit the credits of the far
    :class:`InputPort` and the SID tracker table — downstream VC -> SID
    of the GO-REQ packet occupying it.  Requests from one source must not
    overtake each other (global ordering identifies a request by source
    ID alone), so while any entry with SID ``s`` is live no further
    packet with SID ``s`` may leave through this port; the entry clears
    when the VC's credits are all back.

    State is flat per-vnet lists indexed by ``int(vnet)`` (``VNet`` is an
    IntEnum).  ``free_mask[vnet]`` has bit ``i`` set iff normal VC ``i``
    holds all its credits; ``vc_free[vnet]`` (some normal VC is free) and
    ``rvc_free`` (the reserved one is) are what the router's SA-I scan
    reads.  Only :meth:`take` and :meth:`give_back` move any of it.
    """

    def __init__(self, config: NocConfig, endpoint: object, far_port: int,
                 node: int) -> None:
        # The far end: *endpoint* offers deliver_packet /
        # queue_credit_release — and, when lookaheads are on,
        # deliver_lookahead — and sits at *node*; our flits arrive on its
        # *far_port*.
        self.endpoint = endpoint
        self.far_port = far_port
        self.node = node
        self.lookaheads = config.lookahead_bypass
        # The reserved-VC question ``fn(sid, seq)`` (deadlock avoidance):
        # the far node's NIC's ``rvc_eligible`` once a router binds it.
        self.admits: Callable[[int, int], bool] = rvc_unbound
        goreq, uoresp = config.goreq_vcs, config.uoresp_vcs
        self.rvc: Optional[int] = goreq if config.reserved_vc else None
        self.depth: List[int] = [
            config.goreq_vc_depth,
            max(config.uoresp_vc_depth, config.data_flits)]
        self.credits: List[List[int]] = [
            [self.depth[0]] * config.vc_count(VNet.GO_REQ),
            [self.depth[1]] * uoresp]
        self.free_mask: List[int] = [(1 << goreq) - 1, (1 << uoresp) - 1]
        self.vc_free: List[bool] = [True, True]
        self.rvc_free = config.reserved_vc
        self.sid_of_vc: Dict[int, int] = {}
        self.sid_count: Dict[int, int] = {}

    def select(self, packet: Packet) -> Optional[int]:
        """VC selection (VS): the far VC *packet* may take now, or None.

        A GO-REQ whose SID is still in flight here gets nothing; else
        the lowest free normal VC; else the reserved VC when it is free
        and the far NIC admits the request (at or above the priority of
        the one it expects — the deadlock-avoidance rule).
        """
        vnet = packet.vnet
        if vnet == VNet.GO_REQ and packet.sid in self.sid_count:
            return None
        mask = self.free_mask[vnet]
        if mask:
            return (mask & -mask).bit_length() - 1
        if vnet == VNet.GO_REQ and self.rvc_free \
                and self.admits(packet.sid, packet.seq):
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
        mask = self.free_mask[vnet] = self.free_mask[vnet] & ~(1 << vc)
        self.vc_free[vnet] = mask != 0

    def give_back(self, vnet: VNet, vc: int, flits: int) -> Optional[int]:
        """*flits* credits of far *vc* returned (the packet left that
        input port, or a pre-allocation was undone).  Returns the SID
        whose last table entry this retired, if any."""
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
        self.vc_free[vnet] = True
        return retired

    def send(self, cycle: int, packet: Packet, vc: int,
             echo: bool = False) -> None:
        """ST: hand *packet* to the link and, one cycle ahead of it, the
        hop's one lookahead (*echo*: the sender is a bypass transit)."""
        endpoint, far_port = self.endpoint, self.far_port
        if self.lookaheads:
            endpoint.deliver_lookahead(Lookahead(packet, far_port, echo),
                                       cycle + LOOKAHEAD_DELAY)
        endpoint.deliver_packet(packet, far_port, packet.vnet, vc,
                                cycle + FLIT_DELAY)

    def in_flight_flits(self) -> int:
        """Flits currently occupying the far input port (depth minus
        held credits, summed over every VC): the backpressure reading of
        the observability sampler.  Pure read of committed state."""
        return sum(depth - held
                   for depth, credits in zip(self.depth, self.credits)
                   for held in credits)
