"""On-chip memory controllers.

Two controllers sit at mesh-edge nodes (four in the 64/100-core variants)
and split the physical address space by interleaving.  Following the
paper's own RTL methodology, DRAM is a functional, fully-pipelined
fixed-latency model (90 cycles total: a ~10-cycle lookup plus an 80-cycle
off-chip access).

In SCORPIO (snoopy) mode the controller snoops the globally ordered
request stream like any other node and keeps, per line, the equivalent of
the chip's "directory cache" owner/dirty bits: *which* node owns the line,
or ``None`` when memory does.  It must answer exactly the requests no
cache owner will answer, and it must hold requests that race with an
in-flight writeback (the "valid bit" of Sec. 5).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.cache.array import line_addr
from repro.coherence.messages import (CoherenceRequest, CoherenceResponse,
                                      MemRead, ReqKind, RespKind)
from repro.core.serialize import SerializableConfig
from repro.memory.dram import DramConfig
from repro.nic.controller import NetworkInterface
from repro.sim.engine import Clocked, EventWheel
from repro.sim.stats import StatsRegistry


@dataclass
class MemoryConfig(SerializableConfig):
    lookup_latency: int = 10      # owner-bit / directory-cache access
    dram_latency: int = 80        # off-chip access beyond the lookup
    line_size: int = 32
    # Optional banked DDR2 timing (repro.memory.dram) instead of the
    # paper's fixed fully-pipelined latency; ``dram_config`` falls back
    # to DramConfig defaults when left None.
    banked: bool = False
    dram_config: Optional[object] = None

    # The loose ``object`` annotation avoided committing the public
    # config surface to the DRAM model; serialization pins it down.
    __serialize_nested__ = {"dram_config": DramConfig}


class AddressInterleavedMap:
    """Address-interleaved home-MC mapping (line granularity).

    A callable class rather than a closure so systems holding the map
    stay picklable for checkpoint/restore."""

    def __init__(self, mc_nodes: List[int], line_size: int = 32) -> None:
        if not mc_nodes:
            raise ValueError("need at least one memory controller node")
        self.nodes = list(mc_nodes)
        self.line_size = line_size

    def __call__(self, addr: int) -> int:
        return self.nodes[(addr // self.line_size) % len(self.nodes)]


class OwnsMappedAddr:
    """``owns_addr`` predicate: is *node* the home MC for the address
    under *memory_map*?  (Picklable replacement for the per-MC lambda.)"""

    def __init__(self, memory_map: Callable[[int], int], node: int) -> None:
        self.memory_map = memory_map
        self.node = node

    def __call__(self, addr: int) -> bool:
        return self.memory_map(addr) == self.node


def owns_every_addr(addr: int) -> bool:
    """``owns_addr`` for directory-system MCs: MemReads are pre-routed
    to the right controller, so every delivered address is ours."""
    return True


def make_memory_map(mc_nodes: List[int],
                    line_size: int = 32) -> Callable[[int], int]:
    """Address-interleaved home-MC mapping (line granularity)."""
    return AddressInterleavedMap(mc_nodes, line_size)


class MemoryController(Clocked):
    """One edge memory controller participating in snoopy coherence."""

    def __init__(self, node: int, nic: NetworkInterface,
                 owns_addr: Callable[[int], bool],
                 config: Optional[MemoryConfig] = None,
                 stats: Optional[StatsRegistry] = None,
                 snoopy: bool = True) -> None:
        self.node = node
        self.nic = nic
        self.owns_addr = owns_addr
        self.config = config or MemoryConfig()
        self.stats = stats or StatsRegistry()
        # In directory systems the MC is a dumb DRAM backend: it only
        # serves MemRead messages from home directories and never runs
        # the snoopy owner-bit logic.
        self.snoopy = snoopy
        # line -> owning node id; absent means memory owns the line.
        self.owner: Dict[int, int] = {}
        # Request ids already seen: a second sighting is a retry (TokenB
        # baseline), and memory acts as the persistent-request fallback.
        self._seen_req_ids: Dict[int, int] = {}
        # Store-count versions of lines whose current data is in DRAM.
        self.versions: Dict[int, int] = {}
        # Lines whose PUT is ordered but whose data has not arrived yet.
        self.wb_pending: Dict[int, bool] = {}
        # Requests for those lines, served once the data lands.
        self.waiting: Dict[int, Deque[CoherenceRequest]] = {}
        # due cycle -> (bound_method, args) — picklable, so DRAM
        # responses in flight survive checkpoint/restore.
        self._timers = EventWheel()
        self.dram = None
        if self.config.banked:
            from repro.memory.dram import DramConfig, DramModel
            dram_config = self.config.dram_config or DramConfig(
                line_size=self.config.line_size)
            self.dram = DramModel(dram_config, self.stats,
                                  name=f"dram.mc{node}")
        nic.add_request_listener(self._on_ordered_request)
        nic.add_response_listener(self._on_response)

    # ------------------------------------------------------------------

    def _on_ordered_request(self, payload: Any, sid: int, cycle: int,
                            arrival_cycle: int) -> None:
        if isinstance(payload, MemRead):
            self._serve_mem_read(payload, cycle, arrival_cycle)
            return
        if not self.snoopy or not isinstance(payload, CoherenceRequest):
            return
        line = line_addr(payload.addr, self.config.line_size)
        if not self.owns_addr(line):
            return
        if payload.kind is ReqKind.PUT:
            self._put_ordered(payload, sid, line)
            return
        self._request_ordered(payload, line, cycle)

    def _put_ordered(self, req: CoherenceRequest, sid: int,
                     line: int) -> None:
        if self.owner.get(line) != sid:
            # Stale PUT: the evictor lost ownership to an earlier-ordered
            # GETX and will not send data; nothing changes.
            self.stats.incr("mc.puts.stale")
            return
        del self.owner[line]
        self.wb_pending[line] = True
        self.stats.incr("mc.puts.accepted")

    def _request_ordered(self, req: CoherenceRequest, line: int,
                         cycle: int) -> None:
        owner = self.owner.get(line)
        seen = self._seen_req_ids.get(req.req_id, 0)
        self._seen_req_ids[req.req_id] = seen + 1
        if seen:
            # A retry: the cache-to-cache transfer failed (unordered
            # races, TokenB baseline).  Memory resolves it like a
            # persistent request would.
            if req.kind is ReqKind.GETX:
                self.owner[line] = req.requester
            if not self.wb_pending.get(line):
                self._serve_from_dram(req, cycle)
                self.stats.incr("mc.retry_rescues")
            return
        if req.kind is ReqKind.GETX:
            # Whoever wins the order owns the line from this point on.
            self.owner[line] = req.requester
            if owner is not None:
                self.stats.incr("mc.getx.cache_owned")
                return  # the previous owner (a cache) supplies data
        elif owner is not None:
            self.stats.incr("mc.gets.cache_owned")
            return  # a cache owner will respond
        # Memory must supply the data (possibly after an in-flight WB).
        if self.wb_pending.get(line):
            self.waiting.setdefault(line, deque()).append(req)
            self.stats.incr("mc.requests.wb_blocked")
            return
        self._serve_from_dram(req, cycle)

    def _dram_latency(self, addr: int, issue_cycle: int) -> int:
        """Off-chip access time beyond the lookup: fixed (the paper's
        functional model) or banked DDR2 timing."""
        if self.dram is None:
            return self.config.dram_latency
        return self.dram.access(addr, issue_cycle) - issue_cycle

    def _serve_from_dram(self, req: CoherenceRequest, cycle: int) -> None:
        """Snoopy mode: no cache owner answers *req*, memory does — after
        the owner-bit lookup that decided so."""
        lookup = self.config.lookup_latency
        inject = req.stamps.get("inject", req.issue_cycle)
        self._send_mem_data(
            req, cycle, lookup + self._dram_latency(req.addr, cycle + lookup),
            {"bcast_net": max(0, cycle - inject)})

    def _serve_mem_read(self, msg: MemRead, cycle: int,
                        arrival_cycle: int) -> None:
        """Directory mode: home asked us to serve *msg.request* from DRAM
        (the lookup was the home's directory access, already stamped)."""
        req = msg.request
        self._send_mem_data(
            req, cycle, self._dram_latency(req.addr, cycle),
            dict(msg.stamps,             # net_req + dir_access from home
                 dir_to_mem=max(0, arrival_cycle - msg.sent_cycle)))

    def _send_mem_data(self, req: CoherenceRequest, cycle: int, latency: int,
                       stamps: Dict[str, int]) -> None:
        """Schedule the MEM_DATA answer to *req*, *latency* cycles out;
        *stamps* says how the request reached this controller."""
        send_cycle = cycle + latency
        resp = req.reply(RespKind.MEM_DATA, self.node, self.versions.get(
            line_addr(req.addr, self.config.line_size), 0),
            served_by="memory")
        resp.stamps.update(stamps, mem_access=latency, data_sent=send_cycle)
        self._timers.push(send_cycle, (self.nic.send_response,
                                       (resp, req.requester, True)))
        self.wake(send_cycle)
        self.stats.incr("mc.dram_reads")

    def _on_response(self, payload: Any, cycle: int) -> None:
        if not isinstance(payload, CoherenceResponse):
            return
        if payload.kind is not RespKind.WB_DATA or payload.dest != self.node:
            return
        line = line_addr(payload.addr, self.config.line_size)
        if not self.owns_addr(line):
            return
        self.wb_pending.pop(line, None)
        self.versions[line] = max(self.versions.get(line, 0),
                                  payload.version)
        self.stats.incr("mc.writebacks_received")
        for req in self.waiting.pop(line, ()):  # drain in order
            self._serve_from_dram(req, cycle)

    # ------------------------------------------------------------------

    def step(self, cycle: int) -> None:
        for fn, args in self._timers.pop_due(cycle):
            fn(*args)
        # The only per-cycle work is releasing scheduled DRAM responses,
        # so sleep to the earliest one (pushes wake us with their send
        # cycle; the listener callbacks run regardless of sleep state).
        self.idle_until(self._timers.min_due)    # WAKE_NEVER when empty

    def idle(self) -> bool:
        return not self._timers and not self.wb_pending and not self.waiting
