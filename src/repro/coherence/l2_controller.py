"""The private L2 cache controller (snoopy MOSI, SCORPIO mode).

Responsibilities (Sec. 4.1-4.2):

* serve the core's loads/stores (through the write-through L1s);
* broadcast GETS/GETX on misses and PUT on dirty evictions, via the NIC;
* snoop the globally ordered request stream — including this node's own
  requests, whose ordered arrival is the moment a write is serialized;
* keep dirty data on chip with the O (owned-dirty) state;
* never block the ordered stream on a transient line: snoops that hit a
  pending write are recorded in the FID (forwarding ID) list and serviced
  when the write completes, in their global order.

Timing model: tag/data access costs ``l2_latency`` cycles; a pipelined L2
starts one ordered request per cycle, a non-pipelined one every
``l2_latency`` cycles (the Sec. 5.3 uncore-pipelining knob).  Region-
tracker-filtered snoops consume no L2 slot.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.cache.array import CacheArray
from repro.cache.region_tracker import RegionTracker
from repro.coherence.messages import (CoherenceRequest, CoherenceResponse,
                                      ReqKind, RespKind)
from repro.coherence.mosi import (Action, State, needs_data_for_write,
                                  on_remote_request, request_for)
from repro.core.serialize import SerializableConfig
from repro.nic.controller import NetworkInterface
from repro.sim.engine import Clocked, EventWheel
from repro.sim.stats import StatsRegistry


@dataclass
class CacheConfig(SerializableConfig):
    """Per-tile cache hierarchy parameters (Table 1 defaults)."""

    l2_size: int = 128 * 1024
    l2_ways: int = 4
    l2_latency: int = 10          # GEMS calibration (Sec. 5)
    mshrs: int = 2                # AHB limit: 2 outstanding per core
    # The chip tracks FIDs with an N-bit vector, so up to N snoopers can
    # be recorded per pending write; 64 covers the 36/64-core systems.
    fid_list_size: int = 64
    l2_pipelined: bool = True
    use_region_tracker: bool = True
    region_bytes: int = 4096
    region_entries: int = 128
    # Region-tracker overflow policy: "saturate" (stop filtering) or
    # "evict" (RegionScout-style: evict the LRU region entry and
    # force-invalidate its cached lines).
    region_policy: str = "saturate"
    ordered_queue_depth: int = 16


@dataclass
class Mshr:
    """Miss status holding register for one outstanding request."""

    req: CoherenceRequest
    op: str                        # 'R' or 'W'
    token: Any                     # opaque core handle
    ordered_seen: bool = False
    data_received: bool = False
    needs_data: bool = True
    served_by: str = ""
    order_cycle: int = -1
    last_issue_cycle: int = -1
    # Directory broadcast schemes: our own snoop broadcast returning from
    # the home marks our request's place in the home's serialization.
    marker_seen: bool = False
    resp_stamps: Dict[str, int] = field(default_factory=dict)
    resp_version: int = 0
    deferred: List[CoherenceRequest] = field(default_factory=list)
    # Directory broadcast schemes: remote snoops that arrived before our
    # own broadcast returned (the marker).  Arrival order cannot tell
    # whether they were serialized before or after our request, so they
    # park here and are classified by sequence number when the marker
    # lands (see DirectoryL2Controller._process_ordered).
    pre_marker: List[Any] = field(default_factory=list)


@dataclass
class WritebackEntry:
    """A dirty line moved out of the array, awaiting its ordered PUT."""

    addr: int
    state: State                   # M or O at eviction time
    put: CoherenceRequest
    lost_ownership: bool = False   # an earlier-ordered GETX won the line
    version: int = 0


class L2Controller(Clocked):
    """One tile's L2 + coherence engine, attached to one NIC."""

    def __init__(self, node: int, nic: NetworkInterface,
                 memory_map: Callable[[int], int], line_size: int,
                 config: Optional[CacheConfig] = None,
                 stats: Optional[StatsRegistry] = None,
                 retry_timeout: Optional[int] = None) -> None:
        self.node = node
        self.nic = nic
        self.memory_map = memory_map
        self.config = config or CacheConfig()
        self.stats = stats or StatsRegistry()
        # Unordered snoopy baselines (TokenB, Uncorq): rebroadcast a
        # request that has not completed after this many cycles.  None
        # disables retries: SCORPIO never needs them, because the global
        # order resolves every race, and the directories serialize at
        # the home.
        self.retry_timeout = retry_timeout
        self.array = CacheArray(self.config.l2_size, self.config.l2_ways,
                                line_size, invalid_state=State.I)
        self.region_tracker = RegionTracker(
            self.config.region_bytes, self.config.region_entries,
            policy=self.config.region_policy) \
            if self.config.use_region_tracker else None

        self.mshrs: Dict[int, Mshr] = {}        # req_id -> Mshr
        self._mshr_by_addr: Dict[int, int] = {}  # line addr -> req_id
        self.wb_buffer: Dict[int, WritebackEntry] = {}
        self._ordered_queue: Deque[Tuple[CoherenceRequest, int, int, int]] = deque()
        self._pending_issue: Deque[CoherenceRequest] = deque()
        # due cycle -> (bound_method, args): methods plus plain-data args,
        # so in-flight callbacks survive pickling for checkpoint/restore.
        self._timers = EventWheel()
        self._next_slot_cycle = 0
        self._completion_cb: Optional[Callable[[Any, int], None]] = None
        self._l1_invalidate: Optional[Callable[[int], None]] = None

        nic.add_request_listener(self._on_ordered_request)
        nic.add_response_listener(self._on_response)
        nic.accept_gate = self.can_accept_ordered

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def set_completion_callback(self, fn: Callable[[Any, int], None]) -> None:
        """fn(token, cycle) fires when a core request finishes in the L2."""
        self._completion_cb = fn

    def set_l1_invalidate(self, fn: Callable[[int], None]) -> None:
        """Hook to the core's L1 invalidation port (inclusion)."""
        self._l1_invalidate = fn

    # ------------------------------------------------------------------
    # Core-facing API
    # ------------------------------------------------------------------

    def line_addr(self, addr: int) -> int:
        return self.array.line_addr(addr)

    def can_accept_core_request(self, addr: int) -> bool:
        line = self.line_addr(addr)
        if len(self.mshrs) >= self.config.mshrs:
            return False
        if line in self._mshr_by_addr or line in self.wb_buffer:
            return False
        return True

    def line_version(self, line: int) -> int:
        """Stores absorbed by *line* as currently known at this node."""
        entry = self.wb_buffer.get(line)
        if entry is not None:
            return entry.version
        cached = self.array.lookup(line, touch=False)
        return cached.meta.get("version", 0) if cached is not None else 0

    def _bump_version(self, line: int) -> int:
        cached = self.array.lookup(line, touch=False)
        version = cached.meta.get("version", 0) + 1
        cached.meta["version"] = version
        return version

    def core_request(self, op: str, addr: int, cycle: int,
                     token: Any = None) -> bool:
        """Issue a load ('R') or store ('W'); returns False to stall."""
        line = self.line_addr(addr)
        state = self.array.state_of(line)
        kind = request_for(op, state)
        if kind is None:
            self.array.lookup(line)  # LRU touch
            self.stats.incr("l2.hits")
            done = cycle + self.config.l2_latency
            version = (self._bump_version(line) if op in ("W", "A")
                       else self.line_version(line))
            self._schedule(done, self._complete_core, token, None, done,
                           version)
            return True
        if not self.can_accept_core_request(addr):
            self.stats.incr("l2.stalls.structural")
            return False
        req = CoherenceRequest(kind=kind, addr=line, requester=self.node,
                               issue_cycle=cycle)
        req.stamp("issue", cycle)
        mshr = Mshr(req=req, op=op, token=token)
        self._init_mshr(mshr)
        self.mshrs[req.req_id] = mshr
        self._mshr_by_addr[line] = req.req_id
        self.stats.incr("l2.misses")
        self._issue(req)
        return True

    def _init_mshr(self, mshr: Mshr) -> None:
        """Protocol-variant hook (the directory L2 overrides this)."""

    def _issue(self, req: CoherenceRequest) -> None:
        if self.nic.can_send_request():
            self._send_request(req)
        else:
            self._pending_issue.append(req)
        # A new in-flight request may arm the retry timer (TokenB) or
        # leave a pending issue to drain: make sure we are ticking.
        self.wake()

    def _send_request(self, req: CoherenceRequest) -> None:
        """Where a request goes — the one thing a protocol variant
        changes about sending (snoopy: broadcast into the global order)."""
        self.nic.send_request(req)

    # ------------------------------------------------------------------
    # Ordered request stream (from the NIC)
    # ------------------------------------------------------------------

    def can_accept_ordered(self) -> bool:
        return len(self._ordered_queue) < self.config.ordered_queue_depth

    def _on_ordered_request(self, payload: CoherenceRequest, sid: int,
                            cycle: int, arrival_cycle: int) -> None:
        self._ordered_queue.append((payload, sid, cycle, arrival_cycle))
        self.wake()

    def _on_response(self, payload: Any, cycle: int) -> None:
        if not isinstance(payload, CoherenceResponse):
            return
        if payload.dest != self.node:
            return
        mshr = self.mshrs.get(payload.req_id)
        if mshr is None:
            return  # e.g. WB_DATA handled by the memory controller
        mshr.data_received = True
        mshr.served_by = payload.served_by
        mshr.resp_stamps.update(payload.stamps)
        mshr.resp_version = payload.version
        mshr.resp_stamps["data_arrival"] = cycle
        # Completion below may change state the step loop's snoop
        # filtering reads (MSHRs, writebacks, region tracker): resume
        # ticking so a sleeping L2 re-evaluates its queue head.
        self.wake()
        self._maybe_complete(mshr, cycle)

    # ------------------------------------------------------------------
    # Per-cycle behaviour
    # ------------------------------------------------------------------

    def step(self, cycle: int) -> None:
        if self._timers.min_due <= cycle:
            for fn, args in self._timers.pop_due(cycle):
                fn(*args)
        elif not (self._ordered_queue or self._pending_issue or self._timers
                  or (self.retry_timeout is not None and self.mshrs)):
            # Nothing queued or scheduled: _schedule / listener callbacks
            # / _issue all wake us when that changes.
            self.idle_until(None)
            return
        while self._pending_issue and self.nic.can_send_request():
            self._send_request(self._pending_issue.popleft())
        if self.retry_timeout is not None:
            self._retry_stuck(cycle)
        self._drain_ordered(cycle)
        self._plan_sleep(cycle)

    def _plan_sleep(self, cycle: int) -> None:
        """Sleep across cycles where this step provably repeats no-ops:
        scheduled callbacks mature at known cycles, and a queue head
        blocked on the L2 slot frees at ``_next_slot_cycle``.  Any state
        change that could unblock earlier arrives through a waking
        channel (_schedule, the NIC listeners, _issue, _on_response)."""
        if self._pending_issue:
            return       # NIC back-pressure: retried every cycle
        if self.retry_timeout is not None and self.mshrs:
            return       # TokenB retry timer: checked every cycle
        wake_at = self._timers.min_due     # WAKE_NEVER when empty
        if self._ordered_queue and self._next_slot_cycle < wake_at:
            wake_at = self._next_slot_cycle
        self.idle_until(wake_at)

    def _retry_stuck(self, cycle: int) -> None:
        """TokenB baseline: rebroadcast unresolved requests (lost races)."""
        for mshr in self.mshrs.values():
            started = (mshr.last_issue_cycle if mshr.last_issue_cycle >= 0
                       else mshr.req.issue_cycle)
            if cycle - started > self.retry_timeout \
                    and self.nic.can_send_request():
                mshr.last_issue_cycle = cycle
                mshr.needs_data = True
                mshr.data_received = False
                self._send_request(mshr.req)
                self.stats.incr("l2.retries")

    def _drain_ordered(self, cycle: int) -> None:
        # Region-filtered snoops are free; others consume the L2 slot.
        while self._ordered_queue:
            req, sid, order_cycle, arrival_cycle = self._ordered_queue[0]
            if self._is_filtered(req, sid):
                self._ordered_queue.popleft()
                self.stats.incr("l2.snoops.filtered")
                continue
            if cycle < self._next_slot_cycle:
                return
            self._ordered_queue.popleft()
            interval = 1 if self.config.l2_pipelined else self.config.l2_latency
            self._next_slot_cycle = cycle + interval
            self._process_ordered(req, sid, cycle, arrival_cycle)

    def _is_filtered(self, req: Any, sid: int) -> bool:
        """Region-tracker destination filtering (snoopy requests only)."""
        if sid == self.node or self.region_tracker is None:
            return False
        if not isinstance(req, CoherenceRequest) or req.kind is ReqKind.PUT:
            return False
        return self._region_rules_out(req.addr)

    def _region_rules_out(self, line: int) -> bool:
        """No cached line in the region and no transaction on *line*."""
        return (not self.region_tracker.may_cache(line)
                and line not in self.wb_buffer
                and line not in self._mshr_by_addr)

    def snoop_interest(self, addr: int) -> bool:
        """Conservative region-level interest in snoops of *addr*, for
        in-network filtering (INCF, :mod:`repro.noc.filtering`).

        Must never be False when :meth:`_is_filtered` would process the
        snoop, so it widens the exact-address MSHR/writeback checks to
        their whole regions.
        """
        if self.region_tracker is None:
            return True      # no tracker -> cannot prove disinterest
        if self.region_tracker.may_cache(addr):
            return True
        region = self.region_tracker.region_of(addr)
        region_of = self.region_tracker.region_of
        return (any(region_of(line) == region for line in self.wb_buffer)
                or any(region_of(line) == region
                       for line in self._mshr_by_addr))

    # ------------------------------------------------------------------
    # Protocol engine
    # ------------------------------------------------------------------

    def _process_ordered(self, req: CoherenceRequest, sid: int, cycle: int,
                         arrival_cycle: int) -> None:
        if sid == self.node:
            self._process_own(req, cycle)
        else:
            self._process_remote(req, cycle, arrival_cycle)

    def _process_own(self, req: CoherenceRequest, cycle: int) -> None:
        if req.kind is ReqKind.PUT:
            self._own_put_ordered(req, cycle)
            return
        mshr = self.mshrs.get(req.req_id)
        if mshr is None:
            if self.retry_timeout is not None:
                # Retrying baselines (TokenB/Uncorq) rebroadcast a stuck
                # request under the same req_id; if the original copy
                # completed the transaction first, the retry's own copy
                # arrives after the MSHR retired.  It carries no new
                # information — drop it.
                self.stats.incr("l2.snoops.stale_own")
                return
            raise RuntimeError(f"node {self.node}: own ordered request "
                               f"{req!r} has no MSHR")
        mshr.ordered_seen = True
        mshr.order_cycle = cycle
        req.stamp("ordered", cycle)
        if req.kind is ReqKind.GETX:
            state = self._owning_state(req.addr)
            mshr.needs_data = needs_data_for_write(state)
        else:
            mshr.needs_data = True
        self._maybe_complete(mshr, cycle)

    def _owned_wb_entry(self, line: int) -> Optional[WritebackEntry]:
        """The writeback-buffer copy of *line* while it still answers for
        ownership: until its PUT is ordered (we remain owner in the
        global order) unless an earlier-ordered GETX won the line."""
        entry = self.wb_buffer.get(line)
        if entry is not None and not entry.lost_ownership:
            return entry
        return None

    def _owning_state(self, line: int) -> State:
        entry = self._owned_wb_entry(line)
        if entry is not None:
            return entry.state
        return self.array.state_of(line)

    def _own_put_ordered(self, req: CoherenceRequest, cycle: int) -> None:
        entry = self.wb_buffer.pop(req.addr, None)
        if entry is None:
            raise RuntimeError(f"node {self.node}: PUT ordered without a "
                               f"writeback entry for {req.addr:#x}")
        if entry.lost_ownership:
            self.stats.incr("l2.writebacks.stale")
            return
        self._send_writeback(entry)
        self.stats.incr("l2.writebacks.completed")

    def _send_writeback(self, entry: WritebackEntry) -> None:
        """The dirty data of *entry* goes to the line's memory controller."""
        mc_node = self.memory_map(entry.addr)
        self.nic.send_response(
            entry.put.reply(RespKind.WB_DATA, self.node, entry.version,
                            dest=mc_node),
            mc_node, carries_data=True)

    def _process_remote(self, req: CoherenceRequest, cycle: int,
                        arrival_cycle: int) -> None:
        if req.kind is ReqKind.PUT:
            return  # another node returned ownership to memory
        line = req.addr
        # A pending request of ours that is already ordered means this
        # snoop logically follows our transaction: defer it (FID list).
        req_id = self._mshr_by_addr.get(line)
        if req_id is not None:
            mshr = self.mshrs[req_id]
            if mshr.ordered_seen:
                if len(mshr.deferred) >= self.config.fid_list_size:
                    # FID list full: stall the ordered stream (rare).
                    self._ordered_queue.appendleft(
                        (req, req.requester, cycle, arrival_cycle))
                    self.stats.incr("l2.snoops.fid_stall")
                    return
                mshr.deferred.append(req)
                self.stats.incr("l2.snoops.deferred")
                return
        self._snoop_line(req, cycle, arrival_cycle)

    def _snoop_line(self, req: CoherenceRequest, cycle: int,
                    arrival_cycle: int, via: Any = None,
                    counted: bool = True) -> None:
        """Answer a remote *req* from whichever copy holds the line.

        The snoop apply (this and the methods down to ``_send_data``)
        serves every inbound shape — a peer's ordered request here, a
        home directory's ``snoop`` / ``fwd_data`` forward in the
        directory L2 — and never asks which one it holds: *via* (the
        message that carried *req*, when that is not *req* itself)
        passes through untouched to the :meth:`_reply_stamps` seam."""
        entry = self._owned_wb_entry(req.addr)
        if entry is not None:
            self._snoop_wb_entry(entry, req, cycle, arrival_cycle, via)
        else:
            self._snoop_array(req, cycle, arrival_cycle, via, counted)

    def _snoop_wb_entry(self, entry: WritebackEntry, req: CoherenceRequest,
                        cycle: int, arrival_cycle: int,
                        via: Any = None) -> None:
        """The evicted-but-not-yet-written-back copy still owns the line."""
        self._send_data(req, cycle, arrival_cycle, via)
        if req.kind is ReqKind.GETX:
            entry.lost_ownership = True
        else:
            entry.state = State.O

    def _snoop_array(self, req: CoherenceRequest, cycle: int,
                     arrival_cycle: int, via: Any = None,
                     counted: bool = True) -> None:
        """Apply the MOSI transition for a remote *req* to the array.
        *counted* is False only for the one caller that has never ticked
        ``l2.invalidations`` (the directory ``fwd_data`` forward)."""
        state = self.array.state_of(req.addr)
        transition = on_remote_request(state, req.kind)
        if Action.SEND_DATA in transition.actions:
            self._send_data(req, cycle, arrival_cycle, via)
        if state is not State.I and transition.next_state is State.I:
            # Action.INVALIDATE_L1 accompanies exactly these transitions;
            # _drop_line keeps inclusion.
            self._drop_line(req.addr)
            if counted:
                self.stats.incr("l2.invalidations")
        elif transition.next_state is not state and state is not State.I:
            self.array.set_state(req.addr, transition.next_state)

    def _drop_line(self, addr: int) -> None:
        """The one way a line leaves the array: the region tracker's line
        count and the L1 copy (inclusion) go with it."""
        self.array.evict(addr)
        if self.region_tracker is not None:
            self.region_tracker.line_evicted(addr)
        if self._l1_invalidate is not None:
            self._l1_invalidate(addr)

    def _send_data(self, req: CoherenceRequest, cycle: int,
                   arrival_cycle: int, via: Any = None) -> None:
        """Owner supplies the line to the requester (cache-to-cache)."""
        send_cycle = cycle + self.config.l2_latency
        resp = req.reply(RespKind.DATA, self.node,
                         self.line_version(req.addr))
        self._reply_stamps(resp.stamps, req, cycle, arrival_cycle, via)
        resp.stamps["sharer_access"] = self.config.l2_latency
        resp.stamps["data_sent"] = send_cycle
        self._schedule(send_cycle, self.nic.send_response, resp,
                       req.requester, True)
        self.stats.incr("l2.data_forwards")

    def _reply_stamps(self, stamps: Dict[str, int], req: CoherenceRequest,
                      cycle: int, arrival_cycle: int, via: Any) -> None:
        """How the request reached this sharer, for the latency
        breakdown: broadcast flight, then the wait for its global order."""
        inject = req.stamps.get("inject", req.issue_cycle)
        stamps["bcast_net"] = max(0, arrival_cycle - inject)
        stamps["ordering"] = max(0, cycle - arrival_cycle)

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------

    def _maybe_complete(self, mshr: Mshr, cycle: int) -> None:
        if not mshr.ordered_seen:
            return
        if mshr.needs_data and not mshr.data_received:
            return
        line = mshr.req.addr
        if not self._ensure_way(line, cycle):
            # No evictable way yet; retry next cycle.
            self._schedule(cycle + 1, self._maybe_complete, mshr, cycle + 1)
            return
        final = State.M if mshr.req.kind is ReqKind.GETX else State.S
        base_version = (mshr.resp_version if mshr.data_received
                        else self.line_version(line))
        version = base_version + (1 if mshr.req.kind is ReqKind.GETX else 0)
        existing = self.array.lookup(line, touch=False)
        if existing is not None:
            existing.state = final
            existing.meta["version"] = version
        else:
            self.array.fill(line, final, version=version)
            if self.region_tracker is not None:
                victim_region = self.region_tracker.line_inserted(line)
                if victim_region is not None:
                    self._flush_region(victim_region, cycle)
        del self.mshrs[mshr.req.req_id]
        del self._mshr_by_addr[line]
        self._record_latency(mshr, cycle)
        self._complete_core(mshr.token, mshr, cycle, version)
        # Service the FID list strictly in global order.
        for deferred in mshr.deferred:
            if deferred.addr in self.wb_buffer:  # pragma: no cover
                raise RuntimeError("deferred snoop raced a writeback")
            self._service_deferred(deferred, cycle)

    def _service_deferred(self, deferred: Any, cycle: int) -> None:
        """Apply one deferred snoop after the pending write completed."""
        self._snoop_array(deferred, cycle, cycle)

    def _ensure_way(self, line: int, cycle: int) -> bool:
        """Make room for *line*; may start a writeback.  False = stall."""
        if self.array.lookup(line, touch=False) is not None:
            return True

        def evictable(candidate) -> bool:
            addr = self.array.addr_of(self.array.set_index(line), candidate)
            return addr not in self._mshr_by_addr and addr not in self.wb_buffer

        way, victim = self.array.victim(line, evictable)
        if way is None:
            return False
        if victim is not None:
            victim_addr = self.array.addr_of(self.array.set_index(line), victim)
            self._evict(victim_addr, victim.state, cycle)
        return True

    def _flush_region(self, region: int, cycle: int) -> None:
        """Region-tracker eviction ("evict" policy): force every stable
        cached line of *region* out of the array, as RegionScout
        hardware does.  Lines mid-transaction are skipped — they remain
        covered by the exact-address MSHR/writeback checks until they
        re-register the region on fill."""
        tracker = self.region_tracker
        victims = []
        for set_index, line in self.array.lines():
            addr = self.array.addr_of(set_index, line)
            if tracker.region_of(addr) != region:
                continue
            if addr in self._mshr_by_addr or addr in self.wb_buffer:
                continue
            victims.append((addr, line.state))
        for addr, state in victims:
            self._evict(addr, state, cycle)
        self.stats.incr("l2.region_flushes")
        self.stats.incr("l2.region_flush_lines", len(victims))

    def _evict(self, addr: int, state: State, cycle: int) -> None:
        version = self.line_version(addr)
        self._drop_line(addr)
        if state.is_owner:
            put = CoherenceRequest(kind=ReqKind.PUT, addr=addr,
                                   requester=self.node, issue_cycle=cycle)
            self.wb_buffer[addr] = WritebackEntry(addr=addr, state=state,
                                                  put=put, version=version)
            self._issue(put)
            self.stats.incr("l2.evictions.dirty")
        else:
            self.stats.incr("l2.evictions.clean")

    def _complete_core(self, token: Any, mshr: Optional[Mshr],
                       cycle: int, version: int = 0) -> None:
        if token is not None and self._completion_cb is not None:
            self._completion_cb(token, cycle, version)

    def _record_latency(self, mshr: Mshr, cycle: int) -> None:
        req = mshr.req
        total = cycle - req.issue_cycle
        self.stats.observe("l2.miss_latency", total)
        served = mshr.served_by or "none"
        self.stats.observe(f"l2.miss_latency.{served}", total)
        stamps = mshr.resp_stamps
        if mshr.served_by:
            categories = ("bcast_net", "ordering", "dir_access",
                          "sharer_access", "mem_access", "net_req")
            for cat in categories:
                if cat in stamps:
                    self.stats.observe(f"l2.breakdown.{served}.{cat}",
                                       stamps[cat])
            if "data_sent" in stamps and "data_arrival" in stamps:
                net_resp = stamps["data_arrival"] - stamps["data_sent"]
                self.stats.observe(f"l2.breakdown.{served}.net_resp",
                                   net_resp)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _schedule(self, cycle: int, fn: Callable[..., None],
                  *args: Any) -> None:
        """Run ``fn(*args)`` at *cycle*.  *fn* must be a bound method (or
        module-level function) and *args* picklable data, so a snapshot
        taken with callbacks in flight can be restored."""
        self._timers.push(cycle, (fn, args))
        self.wake(cycle)

    def state_of(self, addr: int) -> State:
        return self.array.state_of(self.line_addr(addr))

    def idle(self) -> bool:
        return (not self.mshrs and not self.wb_buffer
                and not self._ordered_queue and not self._pending_issue
                and not self._timers)
