"""The receiving end of a link against its definition.

A port's VC layout lives in :class:`~repro.noc.config.NocConfig`
(``vc_count`` / ``vc_depth`` / ``reserved_vc_index``).  A router lays
every input VC of that layout out as one slot — GO-REQ normal VCs, then
UO-RESP VCs, then the reserved VC — and maps (inport, vnet, VC) to a slot
for arrivals and back for the credit return.  Credits go home through
:meth:`OutPort.return_credits <repro.noc.vc.OutPort.return_credits>`
alone, visible the cycle after the packet leaves, and a system is
quiesced only once every credit is home.
"""

import itertools
import random

import pytest

from repro.core.config import ChipConfig
from repro.experiments import SystemSpec
from repro.noc.config import NocConfig, NotificationConfig
from repro.noc.multimesh import MultiMeshInterface
from repro.noc.packet import Packet, VNet
from repro.noc.router import PORTS, Router
from repro.noc.routing import EAST, LOCAL, WEST, opposite
from repro.noc.tester import NodeTester, TrafficConfig
from repro.noc.vc import OutPort
from repro.sim.engine import Clocked, forced_quiescence
from repro.sim.stats import StatsRegistry

GO_REQ, UO_RESP = VNet.GO_REQ, VNet.UO_RESP


class Sink:
    """A far end that records every hand-off and credit it is given."""

    def __init__(self):
        self.packets = []
        self.credits = []

    def deliver_hop(self, cycle, packet, inport, vc_index, echo=False):
        pass

    def deliver_packet(self, packet, inport, vnet, vc_index, arrive_cycle):
        self.packets.append((packet, vnet, vc_index, arrive_cycle))

    def queue_credit_release(self, outport, vnet, vc, flits, cycle):
        self.credits.append((outport, vnet, vc, flits, cycle))

    def rvc_watchers(self):
        return []


def wired_router(config, node=4):
    router = Router(node, config)
    sinks = [Sink() for _port in PORTS]
    for port in PORTS:
        router.connect(port, sinks[port], node)
    return router, sinks


def layout(config):
    """(vnet, VC) of one port's slots, in the documented order."""
    slots = [(GO_REQ, vc) for vc in range(config.goreq_vcs)]
    slots += [(UO_RESP, vc) for vc in range(config.vc_count(UO_RESP))]
    if config.reserved_vc:
        slots.append((GO_REQ, config.reserved_vc_index()))
    return slots


GRID = [NocConfig(width=3, height=3, goreq_vcs=goreq, uoresp_vcs=uoresp,
                  reserved_vc=rvc, channel_width_bytes=width)
        for goreq, uoresp, rvc, width in itertools.product(
            range(1, 7), range(1, 4), (True, False), (8, 16, 32))]


class TestSlotTable:
    def test_layout_and_depths_are_the_configs(self):
        for config in GRID:
            router, _sinks = wired_router(config)
            stride = router._stride
            assert stride == sum(config.vc_count(vnet) for vnet in VNet)
            rvc_slots = 0
            for port in PORTS:
                base = port * stride
                assert router._slot_link[base:base + stride] \
                    == [(port, vnet, vc) for vnet, vc in layout(config)]
                upstream = OutPort(config, router, port, router.node)
                for slot in range(base, base + stride):
                    _port, vnet, vc = router._slot_link[slot]
                    assert router._depth[vnet] \
                        == config.vc_depth(vnet) == upstream.depth[vnet]
                    if config.reserved_vc and vnet == GO_REQ \
                            and vc == config.reserved_vc_index():
                        rvc_slots |= 1 << slot
            assert router._rvc_slots == rvc_slots

    def test_arrivals_and_credit_returns_use_one_bijection(self):
        """One packet into every input VC: each lands in a slot of its
        own whose link names that VC, and its credits go back to the
        port it came from naming the same VC."""
        for config in GRID:
            router, sinks = wired_router(config)
            sent = {}
            for port in PORTS:
                for vnet in VNet:
                    for vc in range(config.vc_count(vnet)):
                        packet = Packet(vnet=vnet, src=0, dst=router.node,
                                        sid=len(sent), size_flits=1)
                        sent[packet.pid] = (port, vnet, vc)
                        router.deliver_packet(packet, port, vnet, vc, 0)
            router.step(0)
            held = {packet.pid: slot
                    for slot, packet in enumerate(router._slot_packet)}
            assert len(held) == len(sent) == 5 * router._stride
            assert {pid: router._slot_link[slot]
                    for pid, slot in held.items()} == sent
            # Drain through LOCAL, crediting the ejection back at once.
            cycle, ejected = 1, 0
            while router.occupancy():
                assert cycle < 50 * router._stride, "slot table stuck"
                router.step(cycle)
                for packet, vnet, vc, _due in sinks[LOCAL].packets[ejected:]:
                    router.queue_credit_release(LOCAL, vnet, vc, 1, cycle + 1)
                ejected = len(sinks[LOCAL].packets)
                cycle += 1
            for port in PORTS:
                assert sorted(credit[:4] for credit in sinks[port].credits) \
                    == sorted((opposite(port), vnet, vc, 1)
                              for link_port, vnet, vc in sent.values()
                              if link_port == port)

    @pytest.mark.parametrize("quiescence", [True, False])
    def test_occupancy_is_the_number_of_occupied_slots(self, quiescence):
        workload = {"kind": "benchmark", "name": "fft", "ops_per_core": 8,
                    "workload_scale": 0.05, "think_scale": 0.5, "seed": 0}
        spec = SystemSpec("scorpio", ChipConfig.variant(3, 3),
                          workload=workload)
        peak = []
        with forced_quiescence(quiescence):
            system = spec.build()

            class Watch(Clocked):
                """Registered last: reads every router after its
                commit, every cycle (it never sleeps)."""

                def commit(self, _cycle):
                    for router in system.mesh.routers:
                        occupied = sum(packet is not None
                                       for packet in router._slot_packet)
                        assert router.occupancy() == occupied
                        peak.append(occupied)

            system.engine.register(Watch())
            system.run_until_done(spec.max_cycles)
        assert system.all_cores_finished()
        assert max(peak) > 1


class TestReturnCredits:
    def test_a_router_outport_returns_to_the_router_upstream(self):
        router, sinks = wired_router(NocConfig(width=3, height=3))
        router.out[EAST].return_credits(10, GO_REQ, 2, 1)
        assert sinks[EAST].credits == [(WEST, GO_REQ, 2, 1, 11)]

    @pytest.mark.parametrize("lane", [0, 1])
    def test_a_multimesh_nic_returns_over_the_lane_it_was_fed_by(self, lane):
        config = NocConfig(width=3, height=3)
        nic = MultiMeshInterface(4, config, NotificationConfig())
        routers = [Sink(), Sink()]
        for router in routers:
            nic.attach_router(router)
        packet = Packet(vnet=UO_RESP, src=0, dst=4, sid=0, size_flits=3)
        nic.tap(lane).deliver_packet(packet, LOCAL, UO_RESP, 1, 7)
        nic.step(7)
        assert routers[lane].credits == [(LOCAL, UO_RESP, 1, 3, 8)]
        assert routers[1 - lane].credits == []

    def test_a_tester_lane_returns_to_its_router(self):
        config = NocConfig(width=3, height=3)
        tester = NodeTester(4, config, TrafficConfig(injection_rate=1e-12),
                            StatsRegistry(), random.Random(0))
        router = Sink()
        tester.attach(router)
        packet = Packet(vnet=GO_REQ, src=0, dst=4, sid=0, size_flits=1)
        tester.deliver_packet(packet, LOCAL, GO_REQ, 3, 5)
        tester.step(5)
        assert router.credits == [(LOCAL, GO_REQ, 3, 1, 6)]


@pytest.mark.parametrize("builder", ["scorpio", "directory", "multimesh",
                                     "tokenb", "timestamp", "uncorq"])
def test_quiesced_waits_for_every_credit(builder, credits_in_flight):
    """Stopped while packets are in flight and then run on a cycle at a
    time, a system is never quiesced while a flit is uncredited, and
    every credit is home once it is."""
    workload = {"kind": "benchmark", "name": "fft", "ops_per_core": 8,
                "workload_scale": 0.02, "think_scale": 10.0, "seed": 0}
    spec = SystemSpec(builder, ChipConfig.variant(3, 3), workload=workload)
    system = spec.build()
    while not credits_in_flight(system):
        system.engine.run(1)
    uncredited = 0
    while not (system.all_cores_finished() and system.quiesced()):
        assert system.engine.cycle < spec.max_cycles
        if credits_in_flight(system):
            uncredited += 1
            assert not system.quiesced()
        system.engine.run(1)
    assert uncredited > 1
    assert credits_in_flight(system) == 0
