"""Router + mesh integration tests: latencies, broadcast delivery,
point-to-point ordering, bypass behaviour.

Uses a bare-bones NIC-like endpoint so the NoC is tested without the
coherence stack on top.
"""

from typing import List, Optional, Tuple

import pytest

from repro.noc.config import NocConfig
from repro.noc.mesh import Mesh, zero_load_latency
from repro.noc.packet import Packet, VNet
from repro.noc.router import Router
from repro.noc.routing import LOCAL, WEST
from repro.noc.tester import NetworkTester, TrafficConfig
from repro.noc.vc import OutPort
from repro.sim.engine import Clocked, Engine


class StubEndpoint:
    """Minimal NIC: injects packets, records ejections, returns credits."""

    def __init__(self, node: int, config: NocConfig) -> None:
        self.node = node
        self.config = config
        self.lane: Optional[OutPort] = None
        self.received: List[Tuple[int, Packet]] = []
        self._credit_returns = []
        self._pending = []
        self._ejected = []
        self.sent = 0

    def attach(self, router) -> None:
        self.lane = OutPort(self.config, router, LOCAL, self.node)

    # downstream interface -------------------------------------------------
    def deliver_packet(self, packet, inport, vnet, vc_index, arrive_cycle):
        self._pending.append((arrive_cycle, packet, vnet, vc_index))

    def queue_credit_release(self, outport, vnet, vc, flits, cycle):
        self._credit_returns.append((cycle, vnet, vc, flits))

    # clocked-ish helpers (driven manually by tests) ------------------------
    def tick(self, cycle: int) -> None:
        """Act at *cycle*, from the end of the engine's cycle before it
        (see AfterCommit)."""
        # The previous call's ejections left their VCs in the engine's
        # current cycle: their credits go home now, so the router lands
        # them at this cycle's clock edge and sees them the next.
        for args in self._ejected:
            self.lane.return_credits(*args)
        self._ejected.clear()
        for entry in [e for e in self._credit_returns if e[0] <= cycle]:
            self._credit_returns.remove(entry)
            _c, vnet, vc, flits = entry
            self.lane.give_back(vnet, vc, flits)
        for entry in [e for e in self._pending if e[0] <= cycle]:
            self._pending.remove(entry)
            _c, packet, vnet, vc_index = entry
            self.received.append((cycle, packet))
            self._ejected.append((cycle, vnet, vc_index, packet.size_flits))

    def inject(self, packet: Packet, cycle: int) -> bool:
        vc = self.lane.select(packet)
        if vc is None:
            return False
        self.lane.take(packet, vc)
        packet.inject_cycle = cycle
        self.lane.send(cycle, packet, vc)
        self.sent += 1
        return True


class AfterCommit(Clocked):
    """Calls *fn(cycle + 1)* at the end of every cycle: registered after
    the routers, its commit runs after theirs, so *fn* sees the cycle's
    committed state before the next cycle steps."""

    def __init__(self, fn) -> None:
        self.fn = fn

    def commit(self, cycle: int) -> None:
        self.fn(cycle + 1)


class Fabric:
    """A mesh with stub endpoints driven in lockstep."""

    def __init__(self, width=4, height=4, **noc_overrides):
        self.config = NocConfig(width=width, height=height, **noc_overrides)
        self.engine = Engine()
        self.mesh = Mesh(self.config, self.engine)
        self.endpoints = []
        for node in range(self.config.n_nodes):
            ep = StubEndpoint(node, self.config)
            router = self.mesh.attach(node, ep)
            ep.attach(router)
            self.endpoints.append(ep)
        self.engine.register(AfterCommit(self._tick_endpoints))

    def _tick_endpoints(self, cycle):
        for ep in self.endpoints:
            ep.tick(cycle)

    def run(self, cycles):
        self.engine.run(cycles)


def unicast(src, dst, size=1, vnet=VNet.UO_RESP, seq=0):
    return Packet(vnet=vnet, src=src, dst=dst, sid=src, size_flits=size,
                  seq=seq)


def broadcast(src, seq=0):
    return Packet(vnet=VNet.GO_REQ, src=src, dst=None, sid=src,
                  size_flits=1, seq=seq)


class TestUnicast:
    def test_delivery(self):
        fabric = Fabric()
        fabric.endpoints[0].inject(unicast(0, 15), cycle=0)
        fabric.run(60)
        received = fabric.endpoints[15].received
        assert len(received) == 1
        assert received[0][1].src == 0

    def test_zero_load_latency_matches_model(self):
        fabric = Fabric()
        fabric.endpoints[0].inject(unicast(0, 15), cycle=0)
        fabric.run(60)
        cycle, _pkt = fabric.endpoints[15].received[0]
        assert cycle == zero_load_latency(fabric.config, 0, 15)

    def test_latency_scales_with_hops(self):
        fabric = Fabric()
        fabric.endpoints[5].inject(unicast(5, 6), cycle=0)   # 1 hop
        fabric.run(60)
        one_hop = fabric.endpoints[6].received[0][0]
        fabric2 = Fabric()
        fabric2.endpoints[0].inject(unicast(0, 3), cycle=0)  # 3 hops
        fabric2.run(60)
        three_hops = fabric2.endpoints[3].received[0][0]
        assert three_hops == one_hop + 2 * 2   # 2 cycles per extra hop

    def test_no_bypass_is_slower(self):
        fast = Fabric()
        slow = Fabric(lookahead_bypass=False)
        fast.endpoints[0].inject(unicast(0, 15), cycle=0)
        slow.endpoints[0].inject(unicast(0, 15), cycle=0)
        fast.run(80)
        slow.run(80)
        assert slow.endpoints[15].received[0][0] \
            > fast.endpoints[15].received[0][0]

    def test_multiflit_serialization(self):
        fabric = Fabric()
        fabric.endpoints[0].inject(unicast(0, 1, size=3), cycle=0)
        fabric.run(60)
        single = Fabric()
        single.endpoints[0].inject(unicast(0, 1, size=1), cycle=0)
        single.run(60)
        # The 3-flit packet's tail arrives 2 cycles after a 1-flit packet.
        assert fabric.endpoints[1].received[0][0] \
            == single.endpoints[1].received[0][0] + 2


class TestBroadcast:
    def test_all_nodes_receive_exactly_once(self):
        fabric = Fabric()
        fabric.endpoints[5].inject(broadcast(5), cycle=0)
        fabric.run(80)
        for node, ep in enumerate(fabric.endpoints):
            assert len(ep.received) == 1, f"node {node}"
            assert ep.received[0][1].sid == 5

    def test_source_receives_own_broadcast(self):
        fabric = Fabric()
        fabric.endpoints[9].inject(broadcast(9), cycle=0)
        fabric.run(80)
        assert len(fabric.endpoints[9].received) == 1

    def test_concurrent_broadcasts_all_delivered(self):
        fabric = Fabric()
        for node in range(16):
            fabric.endpoints[node].inject(broadcast(node, seq=0), cycle=0)
        fabric.run(400)
        for ep in fabric.endpoints:
            assert len(ep.received) == 16
            assert sorted(p.sid for _c, p in ep.received) == list(range(16))

    def test_sid_invariant_under_load(self):
        fabric = Fabric()
        checks = []
        fabric.engine.register(AfterCommit(
            lambda _c: checks.append(fabric.mesh.check_sid_invariant())))
        for node in range(16):
            fabric.endpoints[node].inject(broadcast(node), cycle=0)
        fabric.run(200)
        assert all(checks)

    def test_point_to_point_order_same_source(self):
        # Two broadcasts from one source must arrive in order everywhere.
        fabric = Fabric()
        first = broadcast(3, seq=0)
        second = broadcast(3, seq=1)
        fabric.endpoints[3].inject(first, cycle=0)

        injected = {"done": False}

        def try_second(cycle):
            if not injected["done"]:
                injected["done"] = fabric.endpoints[3].inject(second, cycle)

        fabric.engine.register(AfterCommit(try_second))
        fabric.run(300)
        for node, ep in enumerate(fabric.endpoints):
            seqs = [p.seq for _c, p in ep.received if p.sid == 3]
            assert seqs == [0, 1], f"node {node} saw {seqs}"

    def test_quiescence_after_drain(self):
        fabric = Fabric()
        fabric.endpoints[0].inject(broadcast(0), cycle=0)
        fabric.run(100)
        assert fabric.mesh.quiescent()
        lanes = [ep.lane for ep in fabric.endpoints]
        lanes += [out for router in fabric.mesh.routers for out in router.out
                  if out is not None]
        assert not any(lane.in_flight_flits() for lane in lanes)


class TestOneLookaheadPerHop:
    def test_two_bypasses_in_a_row_send_one_lookahead_per_hop(self):
        fabric = Fabric()
        routers = fabric.mesh.routers
        delivered = {node: [] for node in range(len(routers))}
        for node, router in enumerate(routers):
            def record(cycle, packet, inport, vc_index, echo=False,
                       router=router, real=router.deliver_hop):
                real(cycle, packet, inport, vc_index, echo)
                assert len(router._lookaheads) == 1     # alone in the wheel
                delivered[router.node].append(
                    (packet.pid, inport, echo, cycle + 1))
            router.deliver_hop = record
        packet = unicast(0, 3)
        fabric.endpoints[0].inject(packet, cycle=0)
        fabric.run(20)
        stats = fabric.mesh.stats
        assert stats.counter("noc.router.bypassed") == 4      # routers 0..3
        assert stats.counter("noc.router.buffered") == 0
        pid = packet.pid
        # The NIC's lookahead, then one per hop, each due one cycle ahead
        # of the flit and marked as sent by a bypass transit.
        assert delivered.pop(0) == [(pid, LOCAL, False, 1)]
        assert [delivered.pop(node) for node in (1, 2, 3)] == [
            [(pid, WEST, True, 3)], [(pid, WEST, True, 5)],
            [(pid, WEST, True, 7)]]
        assert not any(delivered.values())
        # Each of them books the tick the second copy used to leave.
        assert stats.counter("noc.la.granted") == 4
        assert stats.counter("noc.la.lost_arbitration") == 3
        assert sum(router.la_echoes for router in routers) == 3

    # (granted, denied, lost_arbitration) of a 3x3 mesh, 600 cycles,
    # seed 1 — taken from the model that sent a bypassing flit's
    # lookahead twice; sending it once must not move them.
    PINNED = {("uniform", 0.2): (2674, 470, 1746),
              ("broadcast", 0.05): (2051, 114, 2017)}

    @pytest.mark.parametrize("pattern,rate", sorted(PINNED))
    def test_pinned_counts_hold_and_echoes_split_out_the_real_conflicts(
            self, monkeypatch, pattern, rate):
        """``lost_arbitration - la_echoes`` is the number of lookaheads
        that were refused a crossbar port by a lookahead from another
        input port."""
        routers, tried, losers = set(), set(), []
        real_process = Router._process_lookaheads
        real_grant = Router._grant_bypass

        def grant(router, cycle, packet, inport, outports):
            tried.add((packet.pid, inport))
            return real_grant(router, cycle, packet, inport, outports)

        def process(router, cycle):
            routers.add(router)
            # A lookahead is (packet, inport, echo).
            due = list(router._lookaheads._buckets[cycle])
            tried.clear()
            real_process(router, cycle)
            routes = {(packet.pid, inport): router._route(packet, inport)
                      for packet, inport, _echo in due}
            for packet, inport, _echo in due:
                key = (packet.pid, inport)
                if key not in tried:
                    assert any(other[1] != inport
                               and routes[other[0].pid, other[1]]
                               & routes[key] for other in due)
                    losers.append(key)

        monkeypatch.setattr(Router, "_grant_bypass", grant)
        monkeypatch.setattr(Router, "_process_lookaheads", process)
        NetworkTester(NocConfig(width=3, height=3)).run(
            TrafficConfig(pattern, rate, seed=1), cycles=600)
        stats = next(iter(routers)).stats
        assert tuple(stats.counter(f"noc.la.{name}") for name in
                     ("granted", "denied", "lost_arbitration")) \
            == self.PINNED[pattern, rate]
        echoes = sum(router.la_echoes for router in routers)
        assert 0 < len(losers) \
            == stats.counter("noc.la.lost_arbitration") - echoes


class TestRouteTables:
    @pytest.mark.parametrize("size", [3, 6, 8])
    def test_router_routes_like_the_routing_functions(self, size):
        from repro.noc.routing import broadcast_outports, xy_route
        config = NocConfig(width=size, height=size)
        for node in range(config.n_nodes):
            router = Router(node, config)
            for dst in range(config.n_nodes):
                assert router._route(unicast(0, dst), LOCAL) \
                    == frozenset({xy_route(node, dst, size)})
            for inport in range(5):
                assert router._route(broadcast(0), inport) \
                    == broadcast_outports(node, inport, size, size)


class TestMeshMisc:
    def test_double_attach_rejected(self):
        fabric = Fabric(width=2, height=2)
        with pytest.raises(ValueError):
            fabric.mesh.attach(0, StubEndpoint(0, fabric.config))

    def test_occupancy_zero_at_rest(self):
        fabric = Fabric()
        fabric.run(10)
        assert fabric.mesh.quiescent()


class TestStaleBypassGrant:
    """The stale-grant branch of _process_arrivals: a pre-allocation whose
    packet misses its arrival slot must be rolled back (credits returned,
    SID entries cleared), counted, and the packet buffered normally."""

    def _plant_stale_grant(self, fabric, router, packet, outport,
                           arrival_cycle):
        from repro.noc.router import _BypassGrant
        vc = router.out[outport].select(packet)
        assert vc is not None
        router.out[outport].take(packet, vc)
        router._bypass_grants[packet.pid] = _BypassGrant(
            arrival_cycle=arrival_cycle, outports=frozenset({outport}),
            granted_vcs={outport: vc}, inport=LOCAL)
        return vc

    def test_late_arrival_rolls_back_and_buffers(self):
        from repro.noc.routing import xy_route
        fabric = Fabric()
        router = fabric.mesh.routers[5]
        packet = unicast(5, 7)
        outport = xy_route(5, 7, fabric.config.width)
        # Crossbar pre-allocated for an arrival at cycle 4 ...
        vc = self._plant_stale_grant(fabric, router, packet, outport,
                                     arrival_cycle=4)
        assert not router.out[outport].free_mask[packet.vnet] >> vc & 1
        # ... but the packet shows up at cycle 6 (upstream credits
        # consumed as a real injection would, so the release on forward
        # balances).
        fabric.endpoints[5].lane.take(packet, 0)
        router.deliver_packet(packet, LOCAL, packet.vnet, 0, arrive_cycle=6)
        fabric.run(8)
        assert fabric.mesh.stats.counter("router.grants.stale") == 1
        assert not router._bypass_grants          # grant consumed
        # The pre-allocated credits came back before the normal-path
        # forward re-consumed them; the packet took the buffered path.
        assert fabric.mesh.stats.counter("noc.router.buffered") >= 1
        assert fabric.mesh.stats.counter("noc.router.bypassed") == 0
        fabric.run(60)
        received = fabric.endpoints[7].received
        assert [p.src for _c, p in received] == [5]
        assert fabric.mesh.quiescent()

    def test_goreq_rollback_clears_sid_tracker(self):
        from repro.noc.routing import xy_route
        fabric = Fabric()
        router = fabric.mesh.routers[5]
        packet = Packet(vnet=VNet.GO_REQ, src=5, dst=6, sid=5, size_flits=1,
                        seq=0)
        outport = xy_route(5, 6, fabric.config.width)
        vc = self._plant_stale_grant(fabric, router, packet, outport,
                                     arrival_cycle=4)
        assert 5 in router.out[outport].sid_count
        fabric.endpoints[5].lane.take(packet, 0)
        router.deliver_packet(packet, LOCAL, packet.vnet, 0, arrive_cycle=6)
        fabric.run(8)
        assert fabric.mesh.stats.counter("router.grants.stale") == 1
        # Rollback must also retract the SID reservation, or source 5
        # would deadlock against its own stale grant.
        sids_at_6 = list(router.out[outport].sid_of_vc.values())
        assert sids_at_6.count(5) <= 1    # only the re-forwarded copy
        fabric.run(60)
        assert fabric.mesh.quiescent()
