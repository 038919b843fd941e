"""Multiple main networks (Sec. 5.3's scaling proposal).

The paper observes that a k x k mesh's broadcast throughput falls as
1/k^2 and proposes replicating the main network: "a much lower overhead
solution for boosting throughput is to go with multiple main networks,
which will double/triple the throughput with no impact on frequency...
[and] would not affect the correctness because we decouple message
delivery from ordering."

This module implements that proposal.  Every NIC already keeps one
*lane* (an :class:`~repro.noc.vc.OutPort`) per attached main network; a
:class:`MultiMeshInterface` is the ordered NIC plus the choice of lane:

* GO-REQ requests from one source always use the *same* mesh
  (``source mod N``), preserving the point-to-point ordering that global
  ordering by SID requires;
* UO-RESP responses stripe round-robin — they are unordered anyway;
* the notification network is unchanged (one is plenty: it is just OR
  gates), and the global order is identical regardless of which mesh
  delivered each request.

Each mesh reaches the NIC through a :class:`MeshTap`, which tags what
arrives with the lane it came from.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.nic.controller import OrderedNetworkInterface
from repro.noc.config import NocConfig, NotificationConfig
from repro.noc.packet import Packet, VNet
from repro.noc.routing import LOCAL
from repro.noc.vc import OutPort
from repro.sim.stats import StatsRegistry


class MeshTap:
    """Per-mesh endpoint adapter: tags deliveries and credit returns
    with the mesh index, so the NIC credits the right lane and returns
    ejection credits to the right router."""

    def __init__(self, nic: "MultiMeshInterface", index: int) -> None:
        self.nic = nic
        self.index = index

    def deliver_packet(self, packet, inport, vnet, vc_index, arrive_cycle):
        self.nic._router_of_pid[packet.pid] = self.index
        self.nic.deliver_packet(packet, inport, vnet, vc_index,
                                arrive_cycle)

    def queue_credit_release(self, outport, vnet, vc, flits, cycle):
        self.nic.queue_credit_release(outport, vnet, vc, flits, cycle,
                                      self.index)


class MultiMeshInterface(OrderedNetworkInterface):
    """An ordered NIC striped across several parallel main networks."""

    def __init__(self, node: int, noc_config: NocConfig,
                 notif_config: NotificationConfig,
                 stats: Optional[StatsRegistry] = None) -> None:
        super().__init__(node, noc_config, notif_config, stats)
        self._router_of_pid: Dict[int, int] = {}
        self._resp_rr = 0

    @property
    def n_meshes(self) -> int:
        return len(self._lanes)

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

    def _pick_lane(self, packet: Packet) -> OutPort:
        return self._lanes[self._mesh_for(packet)]

    def _inject_blocked(self) -> bool:
        # _mesh_for mutates the response round-robin pointer, so the base
        # head probe cannot be replayed here without changing behaviour;
        # simply stay awake while anything waits to inject.
        return not (self._inject_queues[VNet.GO_REQ]
                    or self._inject_queues[VNet.UO_RESP])

    def _return_eject_credit(self, cycle: int, packet, vnet, vc_index):
        mesh = self._router_of_pid.pop(packet.pid, 0)
        self._lanes[mesh].endpoint.queue_credit_release(
            LOCAL, vnet, vc_index, packet.size_flits, cycle + 1)
