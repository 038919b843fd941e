"""L2 cache controller variant for the directory baselines (LPD-D, HT-D).

The array, MSHRs, writeback buffer, ``step``, issue path and snoop apply
are :class:`~repro.coherence.l2_controller.L2Controller`'s; this class
overrides only the seams where a directory protocol differs:

* ``_send_request`` — misses and PUTs are **unicast** to the line's home
  directory slice instead of broadcast (the indirection the paper's
  evaluation isolates);
* ``_init_mshr`` / ``_maybe_complete`` — there is no global order: a
  request completes when its data (or a directory ACK, for owner
  upgrades) arrives, and under HT only after its own broadcast returned;
* ``_is_filtered`` / ``_process_ordered`` / ``_service_deferred`` — the
  inbound stream carries :class:`DirForward` messages (data-forward and
  invalidation requests from home directories, plus the HT-style
  broadcast snoops) rather than ordered peer requests; ``snoop`` and
  ``fwd_data`` end in the shared snoop apply;
* ``_reply_stamps`` — a data reply carries the home's stamps and the
  home-to-sharer leg instead of broadcast flight and ordering wait;
* ``_evict`` — a dirty eviction's data goes straight to the memory
  controller while its PUT travels to the home slice, and the writeback
  buffer entry lives until the home acknowledges.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.coherence.l2_controller import CacheConfig, L2Controller, Mshr
from repro.coherence.messages import CoherenceRequest, DirForward, ReqKind
from repro.coherence.mosi import State
from repro.nic.controller import NetworkInterface
from repro.sim.stats import StatsRegistry


class DirectoryL2Controller(L2Controller):
    """Private L2 talking to distributed home directories."""

    def __init__(self, node: int, nic: NetworkInterface,
                 memory_map: Callable[[int], int],
                 home_map: Callable[[int], int], line_size: int,
                 config: Optional[CacheConfig] = None,
                 stats: Optional[StatsRegistry] = None,
                 requires_marker: bool = False) -> None:
        super().__init__(node, nic, memory_map, line_size, config, stats)
        self.home_map = home_map
        # Broadcast schemes (HT): every request's own snoop returns to the
        # requester in home order; completion waits for that marker so
        # that pre-our-request snoops can never be mistaken for
        # post-ownership ones.
        self.requires_marker = requires_marker

    # ------------------------------------------------------------------
    # Issue path: unicast to the home slice
    # ------------------------------------------------------------------

    def _init_mshr(self, mshr: Mshr) -> None:
        # No global-order event exists; completion is purely data/ack
        # driven.  Mark the ordering half of the handshake done up front.
        mshr.ordered_seen = True
        mshr.needs_data = True
        mshr.req.stamp("ordered", mshr.req.issue_cycle)

    def _send_request(self, req: CoherenceRequest) -> None:
        req.home_node = self.home_map(req.addr)
        self.nic.send_request(req, dst=req.home_node)

    # ------------------------------------------------------------------
    # Inbound: directory forwards instead of an ordered peer stream
    # ------------------------------------------------------------------

    def _is_filtered(self, req: Any, sid: int) -> bool:
        if not isinstance(req, DirForward):
            return True   # home-bound requests are the directory's business
        if req.action != "snoop":
            return False  # unicast forwards always concern this node
        if req.request.requester == self.node:
            return False  # our own broadcast returning (upgrade signal)
        return (self.region_tracker is not None
                and self._region_rules_out(req.addr))

    def _process_ordered(self, payload: Any, sid: int, cycle: int,
                         arrival_cycle: int) -> None:
        if not isinstance(payload, DirForward):
            return
        # A data-bearing forward that hits a line we are still *acquiring*
        # must wait for our transaction to finish (the directory believes
        # the transfer already happened) — the equivalent of the snoopy
        # FID list.  But while we still hold a stable owner copy (e.g. an
        # ownership upgrade in flight), we keep serving snoops: the home
        # ordered those before our upgrade, and deferring them would
        # create three-way deferral cycles.  Invalidations targeting a
        # line with an in-flight request are op-dependent: deferred past
        # completion for a read (they may postdate our serialization),
        # applied immediately for a write (the home only invalidates
        # sharers, so they must predate our ownership grant).
        req = payload.request
        if payload.action in ("fwd_data", "snoop", "invalidate") \
                and req.requester != self.node \
                and not self._stable_owner(req.addr):
            req_id = self._mshr_by_addr.get(req.addr)
            if req_id is not None:
                mshr = self.mshrs[req_id]
                if payload.action == "snoop" and not mshr.marker_seen:
                    # Pre-marker snoop: the mesh may deliver two
                    # broadcasts from the same home out of order, so
                    # arrival before our marker does NOT mean the snoop
                    # was serialized before our request — processing it
                    # against the pre-acquisition state could leave a
                    # stale copy alive next to the new owner.
                    if self.requires_marker:
                        # A marker is guaranteed (every HT request
                        # broadcasts): park and classify by sequence
                        # number when it lands.  Parked snoops share
                        # the FID budget with the deferral list — at
                        # marker time they may move onto it wholesale.
                        if (len(mshr.pre_marker) + len(mshr.deferred)
                                < self.config.fid_list_size):
                            mshr.pre_marker.append(payload)
                            self.stats.incr("l2.snoops.parked")
                        else:
                            self._ordered_queue.appendleft(
                                (payload, sid, cycle, arrival_cycle))
                            self.stats.incr("l2.snoops.fid_stall")
                        return
                    if mshr.op == "W":
                        # LPD write in flight: once our GETX serializes
                        # the home unicasts fwd_data to us, it never
                        # broadcasts — so a broadcast reaching us here
                        # predates our serialization and concerns the
                        # pre-acquisition state.
                        self._handle_snoop(payload, cycle, arrival_cycle)
                        return
                    # LPD read in flight, no marker coming: apply after
                    # completion.  If the snoop actually predated our
                    # read this drops a clean just-fetched copy — always
                    # coherent, merely conservative.
                elif payload.action == "invalidate" and mshr.op == "W":
                    # An invalidation targets a *sharer* listing; once
                    # our GETX is serialized the home lists us as owner
                    # and sends fwd_data instead.  So this invalidate
                    # predates our serialization: apply to the old copy
                    # now, never to the M we are about to install.
                    self._handle_invalidate(payload, cycle, arrival_cycle)
                    return
                if (len(mshr.deferred) + len(mshr.pre_marker)
                        < self.config.fid_list_size):
                    mshr.deferred.append(payload)
                    self.stats.incr("l2.snoops.deferred")
                else:
                    # FID list full: stall the inbound stream (never drop
                    # — the requester would hang waiting for data).
                    self._ordered_queue.appendleft(
                        (payload, sid, cycle, arrival_cycle))
                    self.stats.incr("l2.snoops.fid_stall")
                return
        handler = {
            "fwd_data": self._handle_fwd_data,
            "invalidate": self._handle_invalidate,
            "recall": self._handle_invalidate,
            "snoop": self._handle_snoop,
            "put_ack": self._handle_put_ack,
            "upgrade_ack": self._handle_upgrade_ack,
        }.get(payload.action)
        if handler is None:
            raise ValueError(f"unknown forward action {payload.action!r}")
        handler(payload, cycle, arrival_cycle)

    def _stable_owner(self, line: int) -> bool:
        return (self._owned_wb_entry(line) is not None
                or self.array.state_of(line).is_owner)

    def _handle_fwd_data(self, fwd: DirForward, cycle: int,
                         arrival_cycle: int) -> None:
        """Home says: you own this line, send data to the requester — a
        snoop directed at one node, which answers even when it is not
        the owner."""
        req = fwd.request
        if not self._stable_owner(req.addr):
            # Lost race the home could not see; answer anyway so the
            # requester never hangs (functional model, no data payloads).
            self.stats.incr("l2.dir.forward_misses")
            self._send_data(req, cycle, arrival_cycle, fwd)
        self._snoop_line(req, cycle, arrival_cycle, fwd, counted=False)

    def _handle_upgrade_ack(self, fwd: DirForward, cycle: int,
                            arrival_cycle: int) -> None:
        """Home confirms an ownership upgrade (we already hold the data)."""
        mshr = self.mshrs.get(fwd.request.req_id)
        if mshr is None:
            return
        # No data moves: completion builds on the locally held version.
        mshr.needs_data = False
        mshr.served_by = mshr.served_by or "directory"
        mshr.resp_stamps.update(fwd.stamps)
        mshr.resp_stamps["data_arrival"] = cycle
        self._maybe_complete(mshr, cycle)

    def _handle_put_ack(self, fwd: DirForward, cycle: int,
                        arrival_cycle: int) -> None:
        """Home processed our PUT; the writeback buffer entry retires.
        Ordered behind any snoops the home sent us first, so the entry is
        guaranteed to have answered them already."""
        self.wb_buffer.pop(fwd.request.addr, None)

    def _handle_invalidate(self, fwd: DirForward, cycle: int,
                           arrival_cycle: int) -> None:
        if self.array.state_of(fwd.addr) is not State.I:
            self._drop_line(fwd.addr)
            self.stats.incr("l2.invalidations")

    def _handle_snoop(self, fwd: DirForward, cycle: int,
                      arrival_cycle: int) -> None:
        """HT-style broadcast snoop: behave like a snoopy cache."""
        req = fwd.request
        if req.requester == self.node:
            # Our own broadcast returning: the home-order marker.
            mshr = self.mshrs.get(req.req_id)
            if mshr is None:
                return
            mshr.marker_seen = True
            # The marker carries our serialization sequence: classify
            # every parked snoop against it.  Earlier-serialized snoops
            # concern the pre-acquisition state and run now (nothing is
            # installed yet — completion waits for the marker);
            # later-serialized ones must see the line we are about to
            # install, so they join the post-completion deferral list.
            parked, mshr.pre_marker = mshr.pre_marker, []
            for early in parked:
                if 0 <= early.seq < fwd.seq:
                    self._handle_snoop(early, cycle, arrival_cycle)
                else:
                    mshr.deferred.append(early)
                    self.stats.incr("l2.snoops.deferred")
            if req.kind is ReqKind.GETX \
                    and self.array.state_of(req.addr).is_owner:
                # Ownership upgrade: no data will come.
                mshr.needs_data = False
                mshr.served_by = mshr.served_by or "directory"
            self._maybe_complete(mshr, cycle)
            return
        self._snoop_line(req, cycle, arrival_cycle, fwd)

    def _maybe_complete(self, mshr, cycle: int) -> None:
        if self.requires_marker and not mshr.marker_seen:
            return
        super()._maybe_complete(mshr, cycle)

    def _service_deferred(self, deferred: DirForward, cycle: int) -> None:
        self._process_ordered(deferred, deferred.request.requester,
                              cycle, cycle)

    def _reply_stamps(self, stamps: Dict[str, int], req: CoherenceRequest,
                      cycle: int, arrival_cycle: int,
                      via: DirForward) -> None:
        stamps.update(via.stamps)        # net_req + dir_access from home
        leg = "bcast_net" if via.action == "snoop" else "dir_to_sharer"
        stamps[leg] = max(0, arrival_cycle - via.sent_cycle)

    # ------------------------------------------------------------------
    # Writebacks: PUT to home, data to memory, entry freed on home ACK
    # ------------------------------------------------------------------

    def _evict(self, addr: int, state: State, cycle: int) -> None:
        super()._evict(addr, state, cycle)
        entry = self.wb_buffer.get(addr)
        if entry is not None:
            self._send_writeback(entry)

