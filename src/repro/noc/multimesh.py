"""Multiple main networks (Sec. 5.3's scaling proposal).

The paper observes that a k x k mesh's broadcast throughput falls as
1/k^2 and proposes replicating the main network: "a much lower overhead
solution for boosting throughput is to go with multiple main networks,
which will double/triple the throughput with no impact on frequency...
[and] would not affect the correctness because we decouple message
delivery from ordering."

This module implements that proposal.  A :class:`MultiMeshInterface`
attaches one NIC to N parallel meshes:

* GO-REQ requests from one source always use the *same* mesh
  (``source mod N``), preserving the point-to-point ordering that global
  ordering by SID requires;
* UO-RESP responses stripe round-robin — they are unordered anyway;
* the notification network is unchanged (one is plenty: it is just OR
  gates), and the global order is identical regardless of which mesh
  delivered each request.
"""

from __future__ import annotations

from typing import List, Optional

from repro.nic.controller import NetworkInterface
from repro.noc.config import NocConfig, NotificationConfig
from repro.noc.packet import Packet, VNet
from repro.noc.router import Router
from repro.noc.routing import LOCAL
from repro.noc.sid_tracker import SidTracker
from repro.noc.vc import CreditTracker
from repro.sim.engine import EventWheel
from repro.sim.stats import StatsRegistry


class MeshTap:
    """Per-mesh endpoint adapter: tags deliveries with the mesh index so
    the NIC can return credits to the right router."""

    def __init__(self, nic: "MultiMeshInterface", index: int) -> None:
        self.nic = nic
        self.index = index

    def deliver_packet(self, packet, inport, vnet, vc_index, arrive_cycle):
        self.nic._router_of_pid[packet.pid] = self.index
        self.nic.deliver_packet(packet, inport, vnet, vc_index,
                                arrive_cycle)

    def deliver_lookahead(self, la, process_cycle):
        pass

    def queue_credit_release(self, outport, vnet, vc, flits, cycle):
        self.nic._tagged_credit_returns.push(
            cycle, (cycle, self.index, vnet, vc, flits))
        self.nic.wake(cycle)


class MultiMeshInterface(NetworkInterface):
    """A NIC striped across several parallel main networks."""

    def __init__(self, node: int, noc_config: NocConfig,
                 notif_config: NotificationConfig,
                 stats: Optional[StatsRegistry] = None,
                 ordering_enabled: bool = True) -> None:
        super().__init__(node, noc_config, notif_config, stats,
                         ordering_enabled)
        self.routers: List[Router] = []
        self._mesh_credits: List[CreditTracker] = []
        self._mesh_sid_trackers: List[SidTracker] = []
        self._tagged_credit_returns = EventWheel()
        self._router_of_pid = {}
        self._resp_rr = 0

    @property
    def n_meshes(self) -> int:
        return len(self.routers)

    def attach_router(self, router: Router) -> None:
        """Called once per mesh, in mesh order."""
        if not self.routers:
            super().attach_router(router)   # keep base invariants
        elif self.ordering_enabled and self.noc_config.reserved_vc \
                and hasattr(router, "rvc_watchers"):
            # Every mesh shares the one rVC oracle, so routers of later
            # meshes sleep on our ordering state too.
            self._rvc_watchers.extend(router.rvc_watchers())
        self.routers.append(router)
        depth = max(self.noc_config.uoresp_vc_depth,
                    self.noc_config.data_flits)
        self._mesh_credits.append(CreditTracker(
            self.noc_config.goreq_vcs, self.noc_config.goreq_vc_depth,
            self.noc_config.uoresp_vcs, depth,
            self.noc_config.reserved_vc))
        self._mesh_sid_trackers.append(SidTracker())

    def tap(self, index: int) -> MeshTap:
        return MeshTap(self, index)

    # -- mesh selection --------------------------------------------------

    def _mesh_for(self, packet: Packet) -> int:
        if packet.vnet == VNet.GO_REQ:
            # Same-source requests must stay point-to-point ordered, so
            # a source always uses the same mesh.
            return packet.sid % self.n_meshes
        self._resp_rr = (self._resp_rr + 1) % self.n_meshes
        return self._resp_rr

    def _pick_lane(self, packet: Packet):
        mesh = self._mesh_for(packet)
        return (self._mesh_credits[mesh], self._mesh_sid_trackers[mesh],
                self.routers[mesh])

    # -- overridden plumbing ----------------------------------------------

    def _quiet(self) -> bool:
        return super()._quiet() and not self._tagged_credit_returns

    def _pending_event_cycles(self):
        yield from super()._pending_event_cycles()
        if self._tagged_credit_returns:
            yield self._tagged_credit_returns.min_due

    def _inject_blocked(self) -> bool:
        # _mesh_for mutates the response round-robin pointer, so the base
        # head probe cannot be replayed here without changing behaviour;
        # simply stay awake while anything waits to inject.
        return not (self._inject_queues[VNet.GO_REQ]
                    or self._inject_queues[VNet.UO_RESP])

    def _apply_credit_returns(self, cycle: int) -> None:
        super()._apply_credit_returns(cycle)
        if self._tagged_credit_returns.min_due > cycle:
            return
        for _c, mesh, vnet, vc, flits in self._tagged_credit_returns.pop_due(cycle):
            credits = self._mesh_credits[mesh]
            credits.release(vnet, vc, flits)
            if vnet == VNet.GO_REQ and credits.vc_free(vnet, vc):
                self._mesh_sid_trackers[mesh].clear_vc(vc)

    def _return_eject_credit(self, cycle: int, packet, vnet, vc_index):
        mesh = self._router_of_pid.pop(packet.pid, 0)
        self.routers[mesh].queue_credit_release(
            LOCAL, vnet, vc_index, packet.size_flits, cycle + 1)
