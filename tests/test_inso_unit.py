"""Unit tests for INSO's slot arithmetic and expiry machinery."""

import pytest

from repro.noc.config import NocConfig, NotificationConfig
from repro.noc.packet import VNet
from repro.ordering_baselines.inso import (InsoNetworkInterface,
                                           OrderedPayload)


class StubRouter:
    def queue_credit_release(self, *args):
        pass


def make_nic(node=0, n=9, window=20):
    noc = NocConfig(width=3, height=3)
    notif = NotificationConfig(window=13)
    return InsoNetworkInterface(node, noc, notif,
                                expiration_window=window)


class TestSlotAssignment:
    def test_slots_stride_by_node_count(self):
        nic = make_nic(node=2)
        nic.send_request(object())
        nic.send_request(object())
        slots = [p.payload.slot for p in nic._inject_queues[VNet.GO_REQ]]
        assert slots == [2, 11]

    def test_unicast_rejected(self):
        nic = make_nic()
        with pytest.raises(ValueError):
            nic.send_request(object(), dst=4)

    def test_used_slots_recorded(self):
        nic = make_nic(node=1)
        nic.send_request(object())
        assert nic._recent_used == [1]


class TestExpiry:
    def test_expiry_covers_horizon_and_skips_used(self):
        nic = make_nic(node=0)
        nic.peers = [nic]
        nic.send_request(object())          # uses slot 0
        nic._broadcast_expiry(cycle=100)
        # The frontier update arrives after the expiry latency.
        when = 100 + nic.expiry_latency
        assert nic._future_frontiers.min_due == when
        [(node, through, used)] = nic._future_frontiers.pop_due(when)
        assert node == 0
        assert 0 in used                    # slot 0 was used, not expired
        assert through >= nic.n_nodes * nic.expiry_batch

    def test_next_slot_jumps_past_expired(self):
        nic = make_nic(node=3)
        nic.peers = [nic]
        before = nic._my_next_slot
        nic._broadcast_expiry(cycle=0)
        after = nic._my_next_slot
        assert after > before
        assert after % nic.n_nodes == 3     # still our own slot stripe

    def test_frontier_applies_after_latency(self):
        nic = make_nic(node=0)
        nic.peers = [nic]
        nic._broadcast_expiry(cycle=0)
        assert nic._expiry_frontier[0] == -1
        nic.step(nic.expiry_latency + 1)
        assert nic._expiry_frontier[0] >= 0


class TestDelivery:
    def test_skips_expired_slots(self):
        nic = make_nic(node=0)
        delivered = []
        nic.add_request_listener(
            lambda payload, sid, cycle, arrival: delivered.append(payload))
        # Mark slots 0..17 expired for all owners, none used.
        for owner in range(nic.n_nodes):
            nic._expiry_frontier[owner] = 17
        nic._deliver_ordered(cycle=50)
        assert nic._expected_slot == 18
        assert not delivered

    def test_waits_for_known_used_slot(self):
        nic = make_nic(node=0)
        for owner in range(nic.n_nodes):
            nic._expiry_frontier[owner] = 100
        nic._known_used[4].add(4)           # slot 4 carries a request
        nic._deliver_ordered(cycle=50)
        assert nic._expected_slot == 4      # stopped at the used slot

    def test_known_used_drops_slots_behind_the_frontier(self):
        # Node 0 uses slots 0 and 9 and announces them; once both are
        # delivered (and everything else expired) no NIC state remembers
        # a slot the frontier has passed, and a late notice adds none.
        nic = make_nic(node=0)
        nic.peers = [nic]
        nic.attach_router(StubRouter())
        nic.send_request("a")
        nic.send_request("b")
        packets = list(nic._inject_queues[VNet.GO_REQ])
        nic._inject_queues[VNet.GO_REQ].clear()
        nic._broadcast_expiry(cycle=0)
        nic.step(nic.expiry_latency)            # the notice lands
        assert nic._known_used[0] == {0, 9}
        for owner in range(1, nic.n_nodes):
            nic._expiry_frontier[owner] = 17
        for packet in packets:
            nic.deliver_packet(packet, 0, VNet.GO_REQ, 0, arrive_cycle=10)
        for cycle in range(10, 20):
            nic.step(cycle)
        assert nic._expected_slot > 9
        nic._future_frontiers.push(20, (0, 17, (0, 9)))     # stale notice
        nic.step(20)
        for used in nic._known_used.values():
            assert all(slot >= nic._expected_slot for slot in used)
        assert not nic._known_used[0]

    def test_ordered_payload_stamp_passthrough(self):
        class Inner:
            def __init__(self):
                self.stamps = {}

            def stamp(self, name, cycle):
                self.stamps[name] = cycle

        inner = Inner()
        payload = OrderedPayload(slot=3, inner=inner)
        payload.stamp("inject", 42)
        assert inner.stamps == {"inject": 42}

    def test_never_quiesces(self):
        assert make_nic().idle() is False
