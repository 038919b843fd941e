"""Directory coherence baselines: limited-pointer (LPD), full-bit-vector
and HyperTransport-style (HT) directories, distributed across all nodes.

All three come from Sec. 5 of the paper:

* **LPD** — each entry tracks the owner plus a small set of sharer
  pointers; overflow falls back to broadcast.  Fewer bits per entry than a
  full map, but a 256 KB directory cache (split across nodes) still misses,
  and every miss pays the off-chip penalty.
* **FULLBIT** — each entry carries a full N-bit sharer vector: perfectly
  accurate, never broadcasts, but the wide entries mean fewer lines fit in
  the same directory-cache budget, so it misses more.  The paper found LPD
  with 3-4 pointers "almost identical" to full-bit at 36 cores — the
  pointer-vs-capacity trade this scheme lets the harness measure.
* **HT** — the directory holds only an ownership bit and a valid bit; it
  never knows sharers, so every request is broadcast to all cores after
  the ordering-point access.  Tiny entries mean the directory cache almost
  never misses, but every request pays the indirection to the home node.

Requests are unicast to the line's home node (address-interleaved across
all cores — the "-D" distributed variants the paper evaluates).  The
directory is the ordering point: requests to the same line serialize in
its input queue, and no transient directory states are needed because an
entry is read and updated atomically at access time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Optional, Set, Tuple

from repro.cache.array import CacheArray
from repro.core.serialize import SerializableConfig
from repro.coherence.messages import (CoherenceRequest, DirForward, MemRead,
                                      ReqKind)
from repro.nic.controller import NetworkInterface
from repro.sim.engine import WAKE_NEVER, Clocked
from repro.sim.stats import StatsRegistry


@dataclass
class DirectoryConfig(SerializableConfig):
    """Parameters shared by both directory baselines."""

    scheme: str                    # "LPD", "FULLBIT" or "HT"
    n_nodes: int
    total_cache_bytes: int         # split across all nodes (Sec. 5)
    pointers: int = 4              # LPD sharer pointers (paper: ~3-4)
    access_latency: int = 10       # directory cache access (GEMS)
    miss_penalty: int = 80         # off-chip access on a directory miss
    ways: int = 4

    def entry_bits(self) -> int:
        """Directory entry width, following the paper's accounting."""
        import math
        log_n = max(1, math.ceil(math.log2(self.n_nodes)))
        if self.scheme == "HT":
            return 2                      # ownership + valid
        if self.scheme == "FULLBIT":
            # 2 state bits + owner id + full sharer bit-vector.
            return 2 + log_n + self.n_nodes
        # LPD: 2 state bits + owner id + pointer vector (24b @ 36 cores).
        return 2 + log_n + self.pointers * log_n + 1

    def entries_per_node(self) -> int:
        """Power-of-two directory-cache capacity at each home node."""
        total_entries = (self.total_cache_bytes * 8) // max(1, self.entry_bits())
        per_node = max(self.ways, total_entries // self.n_nodes)
        sets = 1
        while sets * 2 * self.ways <= per_node:
            sets *= 2
        return sets * self.ways


@dataclass
class DirEntry:
    """In-cache directory state for one line."""

    owner: Optional[int] = None    # None -> memory owns
    sharers: Set[int] = field(default_factory=set)
    overflow: bool = False         # LPD pointer overflow -> broadcast


class DirectoryController(Clocked):
    """The home-node directory slice at one node."""

    def __init__(self, node: int, nic: NetworkInterface,
                 config: DirectoryConfig,
                 memory_map: Callable[[int], int], line_size: int,
                 stats: Optional[StatsRegistry] = None) -> None:
        self.node = node
        self.nic = nic
        self.config = config
        self.memory_map = memory_map
        self.stats = stats or StatsRegistry()
        entries = config.entries_per_node()
        # Model the directory cache as a set-associative array whose
        # "addresses" are line addresses; entry payload lives in meta.
        self.cache = CacheArray(entries * line_size, config.ways,
                                line_size, invalid_state="I")
        self._queue: Deque[Tuple[CoherenceRequest, int]] = deque()
        self._outbox: Deque[Tuple[int, Any, Optional[int]]] = deque()
        self._next_free = 0
        # Serialization counter stamped on broadcast snoops (seq on
        # DirForward): lets requesters order a remote snoop against
        # their own returning broadcast when the mesh reorders them.
        self._bcast_seq = 0
        nic.add_request_listener(self._on_request)

    # ------------------------------------------------------------------

    def _on_request(self, payload: Any, sid: int, cycle: int,
                    arrival_cycle: int) -> None:
        if not isinstance(payload, CoherenceRequest):
            return
        # Only requests homed at this node (they were unicast here).
        if payload.home_node != self.node:
            return
        self._queue.append((payload, arrival_cycle))
        self.wake()

    def step(self, cycle: int) -> None:
        if not (self._outbox or self._queue):
            self.idle_until(None)   # _on_request / _send_forward wake us
            return
        # Outbound messages leave strictly in processing order (the
        # directory is the ordering point; per-destination delivery order
        # is then preserved by the network's per-SID path FIFO).
        refused = False
        while self._outbox:
            release, msg, dst = self._outbox[0]
            if release > cycle:
                break
            if not self.nic.can_send_request():
                refused = True      # ask again next cycle
                break
            self._outbox.popleft()
            self.nic.send_request(msg, dst=dst)
        while self._queue and cycle >= self._next_free:
            req, arrival_cycle = self._queue.popleft()
            self._access(req, cycle, arrival_cycle)
        if refused:
            return
        # Nothing can happen before the outbox head's release or the
        # next access slot (_on_request wakes us for a new request).
        due = self._outbox[0][0] if self._outbox else WAKE_NEVER
        if self._queue and self._next_free < due:
            due = self._next_free
        self.idle_until(due)

    # ------------------------------------------------------------------

    def _lookup_entry(self, line: int) -> Tuple[DirEntry, int]:
        """Directory cache access; returns (entry, latency)."""
        hit = self.cache.lookup(line)
        if hit is not None:
            self.stats.incr("dir.cache_hits")
            return hit.meta["entry"], self.config.access_latency
        # Miss: fetch the backing entry from memory, evicting another
        # entry.  Evicted entries lose sharer knowledge; the protocol stays
        # safe because eviction forces invalidation of cached copies.
        self.stats.incr("dir.cache_misses")
        latency = self.config.access_latency + self.config.miss_penalty
        way, victim = self.cache.victim(line)
        if victim is not None:
            victim_addr = self.cache.addr_of(self.cache.set_index(line),
                                             victim)
            self._evict_entry(victim_addr, victim.meta["entry"])
            self.cache.evict(victim_addr)
        entry = DirEntry()
        self.cache.fill(line, "V", way=way, entry=entry)
        return entry, latency

    def _evict_entry(self, line: int, entry: DirEntry) -> None:
        """Directory eviction: invalidate all tracked copies so the fresh
        (memory-owned) entry stays truthful."""
        targets = set(entry.sharers)
        if entry.owner is not None:
            targets.add(entry.owner)
        if entry.overflow:
            targets = set(range(self.config.n_nodes))
        dummy = CoherenceRequest(kind=ReqKind.GETX, addr=line,
                                 requester=self.node)
        dummy.home_node = self.node
        for target in sorted(targets):
            if target == self.node:
                continue
            fwd = DirForward(request=dummy, action="recall", home=self.node)
            self._send_forward(fwd, target)  # released immediately
        if targets:
            self.stats.incr("dir.evictions_with_invalidations")

    # ------------------------------------------------------------------

    def _access(self, req: CoherenceRequest, cycle: int,
                arrival_cycle: int) -> None:
        """Serialize one request: the entry is read *and updated* now
        (this is the ordering point — a later request to the same line
        must observe this one's effect), while the outbound messages wait
        out the access latency in the FIFO outbox."""
        line = self.cache.line_addr(req.addr)
        entry, latency = self._lookup_entry(line)
        self._next_free = cycle + 1   # fully-pipelined directory (GEMS)
        done = cycle + latency
        inject = req.stamps.get("inject", req.issue_cycle)
        home_stamps = {
            "net_req": max(0, arrival_cycle - inject),
            "dir_access": latency,
            "queue_wait": max(0, cycle - arrival_cycle),
        }
        if req.kind is ReqKind.PUT:
            self._handle_put(req, entry, done)
        else:
            self._handle_request(req, entry, done, home_stamps)

    def _handle_put(self, req: CoherenceRequest, entry: DirEntry,
                    cycle: int) -> None:
        if entry.owner == req.requester:
            entry.owner = None
            if self.config.scheme == "HT":
                entry.overflow = False  # ownership bit: memory owns again
        else:
            # Stale PUT: an intervening GETX moved ownership; the evictor
            # already forwarded its data and must simply drop the entry.
            self.stats.incr("dir.puts.stale")
        entry.sharers.discard(req.requester)
        # The ack must not overtake snoops already heading to the evictor
        # (its writeback buffer answers them until the ack lands), so it
        # travels on the ordered request class: same source, same path,
        # point-to-point order guaranteed by the SID trackers.
        ack = DirForward(request=req, action="put_ack", home=self.node,
                         sent_cycle=cycle)
        self._send_forward(ack, req.requester, cycle)
        self.stats.incr("dir.puts")

    def _handle_request(self, req: CoherenceRequest, entry: DirEntry,
                        cycle: int, home_stamps: Dict[str, int]) -> None:
        if self.config.scheme == "HT":
            self._handle_ht(req, entry, cycle, home_stamps)
        else:
            self._handle_lpd(req, entry, cycle, home_stamps)

    # -- HyperTransport-style: broadcast after the ordering point --------

    def _handle_ht(self, req: CoherenceRequest, entry: DirEntry,
                   cycle: int, home_stamps: Dict[str, int]) -> None:
        # entry.overflow models the 2-bit HT ownership bit ("some cache
        # owns this"); entry.owner is simulator bookkeeping used only to
        # detect stale PUTs (the real chip resolves this with its valid
        # bit and the ordering point; see DESIGN.md).
        memory_owns = not entry.overflow
        fwd = DirForward(request=req, action="snoop", home=self.node,
                         sent_cycle=cycle, stamps=dict(home_stamps),
                         seq=self._bcast_seq)
        self._bcast_seq += 1
        self._send_forward(fwd, None, cycle)  # broadcast to every core
        if memory_owns:
            self._to_memory(req, cycle, home_stamps)
        if req.kind is ReqKind.GETX:
            entry.overflow = True      # some cache owns it now
            entry.owner = req.requester
        self.stats.incr("dir.ht_broadcasts")

    # -- Limited-pointer directory ---------------------------------------

    def _handle_lpd(self, req: CoherenceRequest, entry: DirEntry,
                    cycle: int, home_stamps: Dict[str, int]) -> None:
        requester = req.requester
        if req.kind is ReqKind.GETS:
            if entry.owner is not None and entry.owner != requester:
                self._forward(req, entry.owner, "fwd_data", cycle,
                              home_stamps)
            else:
                self._to_memory(req, cycle, home_stamps)
            self._track_sharer(entry, requester)
            return
        # GETX: invalidate all sharers, get data from the owner/memory.
        if entry.overflow:
            fwd = DirForward(request=req, action="snoop", home=self.node,
                             sent_cycle=cycle, stamps=dict(home_stamps),
                             seq=self._bcast_seq)
            self._bcast_seq += 1
            self._send_forward(fwd, None, cycle)
            self.stats.incr("dir.lpd_broadcasts")
            if entry.owner is None:
                self._to_memory(req, cycle, home_stamps)
        else:
            for sharer in sorted(entry.sharers):
                if sharer in (requester, entry.owner):
                    continue
                self._forward(req, sharer, "invalidate", cycle, home_stamps)
            if entry.owner is not None and entry.owner != requester:
                self._forward(req, entry.owner, "fwd_data", cycle,
                              home_stamps)
            elif entry.owner == requester:
                # Ownership upgrade: no data moves, but the ack must stay
                # ordered behind any forwards already sent to the owner.
                ack = DirForward(request=req, action="upgrade_ack",
                                 home=self.node, sent_cycle=cycle,
                                 stamps=dict(home_stamps))
                self._send_forward(ack, requester, cycle)
            else:
                self._to_memory(req, cycle, home_stamps)
        entry.owner = requester
        entry.sharers = {requester}
        entry.overflow = False

    def _track_sharer(self, entry: DirEntry, requester: int) -> None:
        if entry.overflow:
            return
        entry.sharers.add(requester)
        if self.config.scheme == "FULLBIT":
            return                       # the full vector never overflows
        if len(entry.sharers) > self.config.pointers:
            entry.overflow = True
            self.stats.incr("dir.pointer_overflows")

    # -- helpers -----------------------------------------------------------

    def _forward(self, req: CoherenceRequest, target: int, action: str,
                 cycle: int, home_stamps: Dict[str, int]) -> None:
        fwd = DirForward(request=req, action=action, home=self.node,
                         sent_cycle=cycle, stamps=dict(home_stamps))
        self._send_forward(fwd, target, cycle)
        self.stats.incr(f"dir.forwards.{action}")

    def _to_memory(self, req: CoherenceRequest, cycle: int,
                   home_stamps: Dict[str, int]) -> None:
        mc_node = self.memory_map(req.addr)
        msg = MemRead(request=req, home=self.node, sent_cycle=cycle,
                      stamps=dict(home_stamps))
        self._send_forward(msg, mc_node, cycle)
        self.stats.incr("dir.memory_reads")

    def _send_forward(self, msg: Any, dst: Optional[int],
                      release_cycle: int = 0) -> None:
        """Queue an outbound forward/recall/ack for release once the
        directory access that produced it completes."""
        self._outbox.append((release_cycle, msg, dst))
        self.wake(release_cycle)

    def idle(self) -> bool:
        return not self._queue and not self._outbox
