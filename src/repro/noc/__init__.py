"""The SCORPIO main network: an unordered mesh NoC with lookahead
bypassing, single-cycle multicast, reserved-VC deadlock avoidance and
per-output-port SID trackers for point-to-point ordering."""

from repro.noc.arbiter import RotatingPriorityArbiter, rotating_order
from repro.noc.config import NocConfig, NotificationConfig
from repro.noc.filtering import (BroadcastFilter, FilterTable,
                                 broadcast_subtree, l2_interest_oracle,
                                 snoop_target)
from repro.noc.mesh import Mesh, zero_load_latency
from repro.noc.packet import Packet, VNet, data_packet_flits
from repro.noc.router import Router
from repro.noc.routing import (EAST, LOCAL, NORTH, SOUTH, WEST,
                               broadcast_outports, coords, hop_count,
                               neighbor, node_at, opposite, xy_route)
from repro.noc.tester import (NetworkTester, NodeTester, TrafficConfig,
                              TrafficResult)
from repro.noc.vc import OutPort

__all__ = [
    "RotatingPriorityArbiter", "rotating_order",
    "NocConfig", "NotificationConfig",
    "BroadcastFilter", "FilterTable", "broadcast_subtree",
    "l2_interest_oracle", "snoop_target",
    "Mesh", "zero_load_latency",
    "Packet", "VNet", "data_packet_flits",
    "Router",
    "NORTH", "EAST", "SOUTH", "WEST", "LOCAL",
    "broadcast_outports", "coords", "hop_count", "neighbor", "node_at",
    "opposite", "xy_route",
    "NetworkTester", "NodeTester", "TrafficConfig", "TrafficResult",
    "OutPort",
]
