"""NIC tests: notification announce/receive, ESID sequencing, stop bit,
back-pressure, and the reserved-VC eligibility oracle."""

import pytest

from repro.nic.controller import NetworkInterface, OrderedNetworkInterface
from repro.noc.config import NocConfig, NotificationConfig


def make_nic(node=0, ordered=True, **notif_overrides):
    noc = NocConfig()
    defaults = dict(bits_per_core=1, window=13, max_pending=4,
                    tracker_queue_depth=4)
    defaults.update(notif_overrides)
    notif = NotificationConfig(**defaults)
    nic_class = OrderedNetworkInterface if ordered else NetworkInterface
    return nic_class(node, noc, notif)


class TestNotificationComposition:
    def test_no_pending_sends_nothing(self):
        nic = make_nic()
        assert nic.compose_notification() == 0

    def test_pending_announced_once(self):
        nic = make_nic(node=3)
        nic.pending_notifications = 1
        vector = nic.compose_notification()
        assert vector == 1 << 3
        assert nic.pending_notifications == 0
        assert nic.compose_notification() == 0

    def test_announce_capped_per_window(self):
        nic = make_nic(node=0, bits_per_core=1)
        nic.pending_notifications = 3
        assert nic.compose_notification() == 1   # only one per window
        assert nic.pending_notifications == 2

    def test_multibit_announces_more(self):
        nic = make_nic(node=0, bits_per_core=2)
        nic.pending_notifications = 3
        assert nic.compose_notification() == 3
        assert nic.pending_notifications == 0

    def test_unordered_nic_is_silent(self):
        # The arrival-order NIC has no notification side at all.
        nic = make_nic(ordered=False)
        for name in ("compose_notification", "receive_merged_notification",
                     "pending_notifications", "consumed_counts"):
            assert not hasattr(nic, name)


class TestStopBit:
    def fill_tracker(self, nic):
        # One vector is being served; the queue counts those behind it.
        for sid in range(nic.notif_config.tracker_queue_depth + 1):
            nic.tracker.push(1 << (sid + 1))

    def test_full_queue_asserts_stop(self):
        nic = make_nic(node=2)
        stop_bit = nic.noc_config.n_nodes * nic.notif_config.bits_per_core
        self.fill_tracker(nic)
        assert nic.compose_notification() >> stop_bit & 1
        nic.tracker.consume_esid()      # the next vector leaves the queue
        assert not nic.compose_notification() >> stop_bit & 1

    def test_stopped_window_rolls_back_announcement(self):
        nic = make_nic(node=5)
        nic.pending_notifications = 1
        sent = nic.compose_notification()
        assert sent
        stop_bit = nic.noc_config.n_nodes * nic.notif_config.bits_per_core
        nic.receive_merged_notification(sent | (1 << stop_bit))
        # The announcement must be re-sent later.
        assert nic.pending_notifications == 1
        # And the NIC is suppressed until a clean window.
        nic.pending_notifications = 1
        assert nic.compose_notification() == 0
        nic.receive_merged_notification(0)   # clean window re-enables
        assert nic.compose_notification() != 0

    def test_clean_window_pushes_to_tracker(self):
        nic = make_nic()
        assert nic.idle()
        nic.receive_merged_notification(1 << 7)
        assert nic.tracker.current_esid() == nic.esid == 7
        assert not nic.idle()           # an ordered request is expected


class TestBackpressure:
    def test_can_send_request_cap(self):
        nic = make_nic(max_pending=2)
        assert nic.can_send_request()
        nic.send_request(object())
        nic.send_request(object())
        assert not nic.can_send_request()
        with pytest.raises(RuntimeError):
            nic.send_request(object())

    def test_ordered_rejects_unicast_request(self):
        nic = make_nic()
        with pytest.raises(ValueError):
            nic.send_request(object(), dst=3)

    def test_unordered_accepts_unicast(self):
        nic = make_nic(ordered=False)
        nic.send_request(object(), dst=3)   # no exception


class TestRvcEligibility:
    def test_expected_request_is_eligible(self):
        nic = make_nic(node=0)
        nic.receive_merged_notification(1 << 4)   # sid 4 announced
        assert nic.esid == 4
        assert nic.rvc_eligible(sid=4, seq=0)

    def test_unexpected_request_not_eligible(self):
        nic = make_nic(node=0)
        nic.receive_merged_notification(1 << 4)
        assert not nic.rvc_eligible(sid=9, seq=0)

    def test_consumed_transit_copy_is_eligible(self):
        # A copy of a request this NIC already consumed outranks anything
        # still pending here (it is bound for nodes further downstream).
        nic = make_nic(node=0)
        nic.consumed_counts[4] = 1
        assert nic.rvc_eligible(sid=4, seq=0)
        assert not nic.rvc_eligible(sid=4, seq=1)

    def test_future_seq_not_eligible(self):
        nic = make_nic(node=0)
        nic.receive_merged_notification(1 << 4)
        assert not nic.rvc_eligible(sid=4, seq=3)

    def test_unordered_never_eligible(self):
        nic = make_nic(ordered=False)
        assert not nic.rvc_eligible(sid=0, seq=0)


class _StubRouter:
    """What a NIC asks of the router it is attached to."""

    def __init__(self):
        self.credits = []

    def rvc_watchers(self):
        return []

    def queue_credit_release(self, *args):
        self.credits.append(args)


def _seam_cases():
    from repro.ordering_baselines import (InsoNetworkInterface,
                                          OrderedPayload,
                                          TimestampNetworkInterface,
                                          TimestampedPayload,
                                          UncorqNetworkInterface)
    plain = lambda inner: inner
    return {
        "arrival-order": (NetworkInterface, plain),
        "scorpio": (OrderedNetworkInterface, plain),
        "inso": (InsoNetworkInterface,
                 lambda inner: OrderedPayload(slot=0, inner=inner)),
        "timestamp": (TimestampNetworkInterface,
                      lambda inner: TimestampedPayload(ot=0, seq=0,
                                                       inner=inner)),
        "uncorq": (UncorqNetworkInterface, plain),
    }


@pytest.mark.parametrize("case", sorted(_seam_cases()))
def test_hand_over_seam(case):
    """Every discipline releases a request through the one gate and the
    one hand-over: a closed ``accept_gate`` costs exactly one stall per
    blocked cycle and delivers nothing; once open, the listeners see the
    inner payload once and the service interval restarts."""
    from repro.noc.packet import Packet, VNet
    from repro.noc.routing import LOCAL

    nic_class, wrap = _seam_cases()[case]
    nic = nic_class(1, NocConfig(width=3, height=3),
                    NotificationConfig(window=13))
    nic.attach_router(_StubRouter())
    calls = []
    nic.add_request_listener(lambda *args: calls.append(args))
    gate = [False]
    nic.accept_gate = lambda: gate[0]

    inner = object()
    packet = Packet(vnet=VNet.GO_REQ, src=0, dst=None, sid=0, size_flits=1,
                    payload=wrap(inner), seq=0)
    nic.deliver_packet(packet, LOCAL, VNet.GO_REQ, 0, arrive_cycle=5)
    if nic_class is OrderedNetworkInterface:
        nic.receive_merged_notification(1 << 0)     # sid 0 is expected

    for cycle in (5, 6, 7):
        nic.step(cycle)
    assert nic.stats.counter("nic.backpressure_stalls") == 3
    assert nic.stats.counter("nic.requests_delivered") == 0
    assert not calls

    gate[0] = True
    nic.step(8)
    assert calls == [(inner, 0, 8, 5)]
    assert nic.stats.counter("nic.requests_delivered") == 1
    assert nic.stats.counter("nic.backpressure_stalls") == 3
    assert nic._next_service_cycle == 8 + nic.service_interval
    nic.step(9)
    assert len(calls) == 1
