"""Virtual-channel buffers and credit tracking.

The simulator moves whole packets between routers but accounts buffers and
credits in flits, so a 3-flit UO-RESP data packet really occupies three
buffer slots and three cycles of link bandwidth.

Each input port of a router (and the packet-facing side of a NIC) owns a
set of :class:`VCBuffer` per virtual network.  The upstream router assigns
the downstream VC during its VC-selection stage, so a buffer never holds
more than one packet at a time (VC depth equals the largest packet size of
its virtual network).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set

from repro.noc.packet import Packet, VNet


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


class CreditTracker:
    """Free-slot accounting for the VCs of one downstream input port.

    Held at each router output port; mirrors the downstream
    :class:`InputPort`.  ``vc_free`` answers the VC-selection (VS) stage's
    question: which downstream VC, if any, can accept this packet?

    Internals are flat per-vnet lists indexed by ``int(vnet)`` (``VNet``
    is an IntEnum), plus one maintained bitmask per vnet of the *fully
    free, non-reserved* VCs — bit ``i`` set iff VC ``i`` holds all its
    credits.  That makes the VS-stage queries
    (:meth:`first_free_normal_vc` / :meth:`reserved_vc_free`) O(1)
    instead of a per-call scan; they sit on the router's hottest loop.
    """

    def __init__(self, goreq_vcs: int, goreq_depth: int, uoresp_vcs: int,
                 uoresp_depth: int, reserved_vc: bool) -> None:
        n_goreq = goreq_vcs + (1 if reserved_vc else 0)
        self._depth: List[int] = [goreq_depth, uoresp_depth]
        self._credits: List[List[int]] = [
            [goreq_depth] * n_goreq,
            [uoresp_depth] * uoresp_vcs,
        ]
        self._reserved_index = goreq_vcs if reserved_vc else None
        # Free-VC bitmasks (normal VCs only; the rVC is tracked by its
        # credit count alone).  Every VC starts full, hence free.
        self._free_mask: List[int] = [
            (1 << goreq_vcs) - 1,
            (1 << uoresp_vcs) - 1,
        ]

    @property
    def reserved_index(self) -> Optional[int]:
        return self._reserved_index

    def credits(self, vnet: VNet, vc: int) -> int:
        return self._credits[vnet][vc]

    def vc_free(self, vnet: VNet, vc: int) -> bool:
        """A VC is assignable only when entirely empty (one packet/VC)."""
        return self._credits[vnet][vc] == self._depth[vnet]

    def consume(self, vnet: VNet, vc: int, flits: int) -> None:
        credits = self._credits[vnet]
        held = credits[vc]
        if held < flits:
            raise RuntimeError(
                f"credit underflow on {vnet.name} vc {vc}: "
                f"{held} < {flits}")
        if held == self._depth[vnet] and (vnet != VNet.GO_REQ
                                          or vc != self._reserved_index):
            self._free_mask[vnet] &= ~(1 << vc)
        credits[vc] = held - flits

    def release(self, vnet: VNet, vc: int, flits: int) -> None:
        credits = self._credits[vnet]
        depth = self._depth[vnet]
        held = credits[vc] + flits
        if held > depth:
            raise RuntimeError(
                f"credit overflow on {vnet.name} vc {vc}")
        credits[vc] = held
        if held == depth and (vnet != VNet.GO_REQ
                              or vc != self._reserved_index):
            self._free_mask[vnet] |= 1 << vc

    def in_flight_flits(self) -> int:
        """Flits currently occupying the downstream input port (depth
        minus held credits, summed over every VC): the backpressure
        reading of the observability sampler.  Pure read of committed
        credit state — no cache or mask is touched."""
        total = 0
        for vnet, credits in enumerate(self._credits):
            depth = self._depth[vnet]
            for held in credits:
                total += depth - held
        return total

    def free_normal_vcs(self, vnet: VNet) -> List[int]:
        """Indices of free, non-reserved VCs of *vnet*."""
        mask = self._free_mask[vnet]
        return [idx for idx in range(mask.bit_length()) if mask >> idx & 1]

    def first_free_normal_vc(self, vnet: VNet) -> Optional[int]:
        """Lowest-index free non-reserved VC of *vnet*, or None."""
        mask = self._free_mask[vnet]
        if mask == 0:
            return None
        return (mask & -mask).bit_length() - 1

    def reserved_vc_free(self) -> bool:
        if self._reserved_index is None:
            return False
        return self.vc_free(VNet.GO_REQ, self._reserved_index)
