"""Packets and virtual networks for the SCORPIO main network.

The main network carries two message classes (virtual networks):

* ``GO_REQ`` — globally ordered coherence requests.  These are broadcast,
  single-flit packets tagged with the source node ID (SID) that the
  notification network orders.
* ``UO_RESP`` — unordered coherence responses.  These are unicast and may
  be multi-flit (cache-line data).

The simulator moves packets as units but charges flit-accurate
serialization and buffer occupancy through the ``size_flits`` field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any, Optional


class VNet(IntEnum):
    """Virtual networks (message classes) of the main network."""

    GO_REQ = 0
    UO_RESP = 1


# Module-level integer (not an itertools.count) so checkpoints can
# capture and restore the allocator position exactly.
_next_packet_id = 0


def _new_packet_id() -> int:
    global _next_packet_id
    pid = _next_packet_id
    _next_packet_id += 1
    return pid


def packet_id_state() -> int:
    """The next pid to be allocated (captured by checkpoints)."""
    return _next_packet_id


def set_packet_id_state(value: int) -> None:
    """Restore the allocator so the next pid equals *value*."""
    global _next_packet_id
    _next_packet_id = int(value)


@dataclass(slots=True)
class Packet:
    """One main-network packet.

    Attributes:
        vnet: virtual network the packet travels in.
        src: injecting node id.
        dst: destination node id, or ``None`` for a broadcast.
        sid: source id used for global ordering (equals ``src`` for
            coherence requests; carried on responses for bookkeeping).
        size_flits: number of flits (1 for control, >=2 for data).
        payload: opaque protocol message carried end to end.
        inject_cycle: cycle the packet entered the network (set by NIC).
    """

    vnet: VNet
    src: int
    dst: Optional[int]
    sid: int
    size_flits: int
    payload: Any = None
    inject_cycle: int = -1
    # Per-source request sequence number (GO-REQ only).  Used by the
    # reserved-VC eligibility check: a copy of the k-th request from
    # source s outranks everything pending at a node that has already
    # consumed k requests from s.
    seq: int = -1
    pid: int = field(default_factory=_new_packet_id)

    @property
    def is_broadcast(self) -> bool:
        return self.dst is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "bcast" if self.is_broadcast else f"->{self.dst}"
        return (f"Packet(pid={self.pid}, {self.vnet.name}, src={self.src} "
                f"{kind}, sid={self.sid}, flits={self.size_flits})")


def data_packet_flits(channel_width_bytes: int, line_size_bytes: int) -> int:
    """Number of flits in a cache-line data packet.

    One header flit plus the line payload split across flits of the channel
    width.  Matches the paper's Table 1 / Sec. 5.2: 16 B channels carry a
    32 B line in 3 flits; 8 B channels need 5; 32 B channels need 2.
    """
    if channel_width_bytes <= 0:
        raise ValueError("channel width must be positive")
    payload_flits = -(-line_size_bytes // channel_width_bytes)  # ceil div
    return 1 + payload_flits
