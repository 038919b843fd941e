"""Coherence protocol messages.

These are the payloads carried by main-network packets: broadcast (or, in
the directory baselines, unicast) requests on the GO-REQ virtual network
and data/ack responses on UO-RESP.  Messages carry breakdown timestamps so
the harness can reproduce the paper's latency-decomposition figures
(Figure 6b/6c) without any global instrumentation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional


class ReqKind(Enum):
    GETS = "GETS"    # read miss: shared copy wanted
    GETX = "GETX"    # write miss/upgrade: exclusive ownership wanted
    PUT = "PUT"      # ownership writeback (dirty data returns to memory)


class RespKind(Enum):
    DATA = "DATA"          # cache-to-cache data transfer
    MEM_DATA = "MEM_DATA"  # data served by a memory controller
    WB_DATA = "WB_DATA"    # writeback data accompanying a PUT
    ACK = "ACK"            # dataless acknowledgement (directory protocols)


# Module-level integer (not an itertools.count) so checkpoints can
# capture and restore the allocator position exactly.
_next_request_id = 0


def _new_request_id() -> int:
    global _next_request_id
    rid = _next_request_id
    _next_request_id += 1
    return rid


def request_id_state() -> int:
    """The next req_id to be allocated (captured by checkpoints)."""
    return _next_request_id


def set_request_id_state(value: int) -> None:
    """Restore the allocator so the next req_id equals *value*."""
    global _next_request_id
    _next_request_id = int(value)


@dataclass
class CoherenceRequest:
    """A coherence request; ``req_id`` matches responses to MSHRs."""

    kind: ReqKind
    addr: int                     # line-aligned address
    requester: int                # node id
    req_id: int = field(default_factory=_new_request_id)
    issue_cycle: int = -1         # cache controller issued the request
    home_node: int = -1           # directory protocols: the home slice
    # Free-form timestamps for latency decomposition, keyed by the
    # breakdown categories of Figure 6 (e.g. "net_req", "ordering",
    # "dir_access", "sharer_access", "net_resp").
    stamps: Dict[str, int] = field(default_factory=dict)

    def stamp(self, name: str, cycle: int) -> None:
        self.stamps.setdefault(name, cycle)

    def reply(self, kind: RespKind, src: int, version: int,
              served_by: str = "cache",
              dest: Optional[int] = None) -> CoherenceResponse:
        """The data-bearing response to this request — the one place a
        DATA / MEM_DATA / WB_DATA message is built.  *dest* defaults to
        the requester (a writeback's data goes to memory instead)."""
        return CoherenceResponse(
            kind=kind, addr=self.addr,
            dest=self.requester if dest is None else dest,
            requester=self.requester, req_id=self.req_id, src=src,
            served_by=served_by, version=version)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"Req({self.kind.value} {self.addr:#x} from "
                f"{self.requester}, id={self.req_id})")


@dataclass
class CoherenceResponse:
    """A response travelling on the UO-RESP virtual network."""

    kind: RespKind
    addr: int
    dest: int                     # node to deliver to
    requester: int                # original requester (== dest except WB)
    req_id: int                   # the request this answers
    src: int = -1                 # responding node
    served_by: str = "cache"      # "cache" | "memory" | "directory"
    carries_data: bool = True
    # Data versioning for memory-consistency verification: the number of
    # stores this line has absorbed, as known by the responder.  Stands
    # in for the actual data bytes (Sec. 4.3's functional verification).
    version: int = 0
    stamps: Dict[str, int] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"Resp({self.kind.value} {self.addr:#x} -> {self.dest}, "
                f"id={self.req_id}, by={self.served_by})")


@dataclass
class DirForward:
    """Directory-protocol internal message: a request forwarded from the
    home directory to an owner/sharer (unicast) or to all cores
    (broadcast, HyperTransport-style)."""

    request: CoherenceRequest
    action: str                   # "fwd_data" | "invalidate" | "snoop"
    home: int                     # the directory node that forwarded it
    sent_cycle: int = -1
    stamps: Dict[str, int] = field(default_factory=dict)
    # Home-serialization sequence number, stamped on broadcast snoops
    # (monotone per home controller).  The mesh does not deliver two
    # broadcasts from the same home in order, so a requester cannot use
    # *arrival* order to decide whether a remote snoop was serialized
    # before or after its own in-flight request — it compares seq
    # against the seq its own returning broadcast (the marker) carries.
    seq: int = -1

    @property
    def addr(self) -> int:
        return self.request.addr


@dataclass
class MemRead:
    """Home directory asks a memory controller to serve a line from DRAM
    directly to the requester (distributed directories sit away from the
    edge controllers, so this crossing costs real network latency)."""

    request: CoherenceRequest
    home: int
    sent_cycle: int = -1
    stamps: Dict[str, int] = field(default_factory=dict)

    @property
    def addr(self) -> int:
        return self.request.addr
