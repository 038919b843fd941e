"""Main-network configuration.

Defaults follow Table 1 of the paper (the fabricated 36-core chip):
6x6 mesh, 16-byte channels (1-flit control packets, 3-flit data packets),
GO-REQ virtual network with 4 one-buffer VCs plus one reserved VC, UO-RESP
with 2 three-buffer VCs, XY routing, cut-through, multicast and lookahead
bypassing, 3-stage router (1 with bypassing) and 1-stage links.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.serialize import SerializableConfig
from repro.noc.packet import VNet, data_packet_flits


@dataclass
class NocConfig(SerializableConfig):
    """Parameters of the SCORPIO main network."""

    width: int = 6
    height: int = 6
    channel_width_bytes: int = 16
    line_size_bytes: int = 32
    goreq_vcs: int = 4           # normal GO-REQ VCs (1 flit buffer each)
    goreq_vc_depth: int = 1
    uoresp_vcs: int = 2          # UO-RESP VCs (3 flit buffers each)
    uoresp_vc_depth: int = 3
    reserved_vc: bool = True     # rVC for deadlock avoidance (Sec. 3.2)
    lookahead_bypass: bool = True
    nic_pipelined: bool = True   # Sec. 5.3 uncore pipelining knob

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("mesh dimensions must be positive")
        if self.goreq_vcs < 1 or self.uoresp_vcs < 1:
            raise ValueError("each virtual network needs at least one VC")
        if self.goreq_vc_depth < 1 or self.uoresp_vc_depth < 1:
            raise ValueError("VC depth must be at least one flit")

    @property
    def n_nodes(self) -> int:
        return self.width * self.height

    @property
    def data_flits(self) -> int:
        """Flits in a cache-line response packet at this channel width."""
        return data_packet_flits(self.channel_width_bytes, self.line_size_bytes)

    # A port's VC layout (Sec. 3.2): every input port, and the credits of
    # every sending end that feeds one, is read from these three methods.

    def vc_count(self, vnet: int) -> int:
        """Number of VCs in *vnet*, including the reserved VC for GO-REQ."""
        if vnet == VNet.GO_REQ:
            return self.goreq_vcs + (1 if self.reserved_vc else 0)
        return self.uoresp_vcs

    def vc_depth(self, vnet: int) -> int:
        """Flit buffers per VC of *vnet*; a UO-RESP VC always holds a
        whole data packet."""
        if vnet == VNet.GO_REQ:
            return self.goreq_vc_depth
        return max(self.uoresp_vc_depth, self.data_flits)

    def reserved_vc_index(self) -> int:
        """VC index of the rVC within GO-REQ (the last VC)."""
        if not self.reserved_vc:
            raise ValueError("configuration has no reserved VC")
        return self.goreq_vcs


@dataclass
class NotificationConfig(SerializableConfig):
    """Parameters of the notification network (Sec. 3.3).

    ``bits_per_core`` encodes how many requests a core may announce per
    time window (1 bit -> 1 request, 2 bits -> up to 3, Sec. 3.3).
    ``window`` must exceed the network's latency bound; for a k x k mesh
    the bound is (k-1) hops per dimension plus the injection cycle, and
    the paper sets 13 cycles for 6x6.
    """

    bits_per_core: int = 1
    window: int = 13
    max_pending: int = 4         # max pending notification messages per NIC
    # Merged vectors a tracker holds behind the one it is serving; a
    # full queue raises the stop bit.
    tracker_queue_depth: int = 4

    def __post_init__(self) -> None:
        if self.bits_per_core < 1:
            raise ValueError("need at least one notification bit per core")
        if self.window < 1:
            raise ValueError("time window must be positive")

    @property
    def max_requests_per_window(self) -> int:
        """Max requests one core can announce in one window."""
        return (1 << self.bits_per_core) - 1

    @staticmethod
    def minimum_window(width: int, height: int) -> int:
        """Smallest safe time window for a width x height mesh."""
        return (width - 1) + (height - 1) + 1
