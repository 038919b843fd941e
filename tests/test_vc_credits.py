"""Unit tests for a router's input VCs (its slot table) and the credit
and SID sides of an :class:`~repro.noc.vc.OutPort`."""

import pytest

from repro.noc.config import NocConfig
from repro.noc.packet import Packet, VNet
from repro.noc.router import PORTS, Router
from repro.noc.routing import EAST, LOCAL, WEST
from repro.noc.vc import OutPort


def make_packet(sid=0, size=1, vnet=VNet.GO_REQ):
    return Packet(vnet=vnet, src=sid, dst=None, sid=sid, size_flits=size)


class Sink:
    """A far end that records the credits returned to it."""

    def __init__(self):
        self.credits = []

    def deliver_lookahead(self, la, process_cycle):
        pass

    def deliver_packet(self, packet, inport, vnet, vc_index, arrive_cycle):
        pass

    def queue_credit_release(self, outport, vnet, vc, flits, cycle):
        self.credits.append((outport, vnet, vc, flits, cycle))


def make_router(config, node):
    """A router at *node* with every port wired to a recording sink."""
    router = Router(node, config)
    sinks = [Sink() for _port in PORTS]
    for port in PORTS:
        router.connect(port, sinks[port], node)
    return router, sinks


def make_out(goreq_vcs=4, goreq_depth=1):
    """An unconnected sending end over *goreq_vcs* + 1 reserved GO-REQ
    VCs and two 3-flit UO-RESP VCs."""
    config = NocConfig(goreq_vcs=goreq_vcs, goreq_vc_depth=goreq_depth,
                       uoresp_vcs=2, uoresp_vc_depth=3, reserved_vc=True)
    return OutPort(config, endpoint=None, far_port=LOCAL, node=0)


class TestVCBuffer:
    """A slot of the router's table: it holds one packet until the last
    outport it forks to is served, and refuses an overrun or a packet
    larger than its depth."""

    def test_accept_and_drain(self):
        router, sinks = make_router(NocConfig(width=3, height=3), node=4)
        for vc in range(router.config.goreq_vcs):     # EAST is full
            router.out[EAST].take(make_packet(sid=9), vc)
        packet = make_packet()                        # a broadcast
        router.deliver_packet(packet, LOCAL, VNet.GO_REQ, 0, 10)
        router.step(10)
        slot = router._slot_vc[LOCAL * router._stride]
        assert slot.packet is packet
        assert slot.ready_cycle == 12
        router.step(12)                               # N, S, W served
        assert slot.packet is packet
        assert slot.pending_outports == {EAST}
        assert sinks[LOCAL].credits == []
        router.queue_credit_release(EAST, VNet.GO_REQ, 0, 1, 13)
        router.step(13)
        assert slot.packet is None
        assert router.occupancy() == 0
        assert sinks[LOCAL].credits == [(LOCAL, VNet.GO_REQ, 0, 1, 14)]

    def test_overrun_raises(self):
        router, _sinks = make_router(NocConfig(width=3, height=3), node=4)
        for _ in range(2):
            router.deliver_packet(make_packet(), WEST, VNet.GO_REQ, 0, 0)
        with pytest.raises(RuntimeError, match="overrun"):
            router.step(0)

    def test_oversize_packet_raises(self):
        router, _sinks = make_router(NocConfig(width=3, height=3), node=4)
        assert router._slot_vc[router._stride + 4].depth == 3   # EAST UO 0
        router.deliver_packet(make_packet(size=5, vnet=VNet.UO_RESP), EAST,
                              VNet.UO_RESP, 0, 0)
        with pytest.raises(RuntimeError, match="cannot fit"):
            router.step(0)


class TestInputPort:
    """The input side of a router port, as its slot table lays it out."""

    def test_geometry_with_reserved(self):
        router, _sinks = make_router(
            NocConfig(goreq_vcs=4, goreq_vc_depth=1, uoresp_vcs=2,
                      uoresp_vc_depth=3, reserved_vc=True), node=7)
        stride = router._stride
        assert stride == 7
        for port in range(5):
            base = port * stride
            link = router._slot_link[base:base + stride]
            goreq = [vc for p, vnet, vc in link if vnet == VNet.GO_REQ]
            assert goreq == [0, 1, 2, 3, 4]
            assert link[-1] == (port, VNet.GO_REQ, 4)      # the rVC, last
            assert router._rvc_slots >> base & ((1 << stride) - 1) \
                == 1 << (stride - 1)
            assert [vc for p, vnet, vc in link
                    if vnet == VNet.UO_RESP] == [0, 1]
            assert [buffer.depth for buffer in
                    router._slot_vc[base:base + stride]] \
                == [1, 1, 1, 1, 3, 3, 1]

    def test_occupancy_count(self):
        router, _sinks = make_router(
            NocConfig(goreq_vcs=2, goreq_vc_depth=1, uoresp_vcs=2,
                      uoresp_vc_depth=3, reserved_vc=False), node=7)
        assert router.occupancy() == 0
        router.deliver_packet(make_packet(), WEST, VNet.GO_REQ, 0, 0)
        router.step(0)
        assert router.occupancy() == 1


class TestCreditTracker:
    def test_initial_credits(self):
        out = make_out()
        assert out.credits[VNet.GO_REQ][0] == 1
        assert out.credits[VNet.UO_RESP][1] == 3
        assert out.rvc == 4
        assert out.rvc_free

    def test_consume_release_roundtrip(self):
        out = make_out()
        out.take(make_packet(size=3, vnet=VNet.UO_RESP), 0)
        assert not out.free_mask[VNet.UO_RESP] & 1
        out.give_back(VNet.UO_RESP, 0, 3)
        assert out.free_mask[VNet.UO_RESP] & 1

    def test_underflow_raises(self):
        out = make_out()
        with pytest.raises(RuntimeError, match="underflow"):
            out.take(make_packet(size=2), 0)

    def test_overflow_raises(self):
        out = make_out()
        with pytest.raises(RuntimeError, match="overflow"):
            out.give_back(VNet.GO_REQ, 0, 1)

    def test_free_normal_excludes_reserved(self):
        out = make_out(goreq_vcs=2)
        assert out.free_mask[VNet.GO_REQ] == 0b11
        out.take(make_packet(), 0)
        assert out.free_mask[VNet.GO_REQ] == 0b10


class TestSidTracker:
    def test_blocks_live_sid(self):
        out = make_out()
        assert out.select(make_packet(sid=5)) == 0
        out.take(make_packet(sid=5), 1)
        assert out.select(make_packet(sid=5)) is None
        assert out.select(make_packet(sid=6)) == 0

    def test_clear_on_credit_return(self):
        out = make_out()
        out.take(make_packet(sid=5), 1)
        assert out.give_back(VNet.GO_REQ, 1, 1) == 5
        assert out.select(make_packet(sid=5)) == 0

    def test_same_sid_multiple_vcs(self):
        # Can happen transiently across *different* output ports only;
        # within one table it means two VCs hold the same source.
        out = make_out()
        out.take(make_packet(sid=5), 0)
        out.take(make_packet(sid=5), 1)
        assert out.give_back(VNet.GO_REQ, 0, 1) is None
        assert out.select(make_packet(sid=5)) is None   # second entry live
        assert out.give_back(VNet.GO_REQ, 1, 1) == 5
        assert out.select(make_packet(sid=5)) == 0

    def test_double_record_same_vc_raises(self):
        out = make_out(goreq_depth=2)       # credits left for a second flit
        out.take(make_packet(sid=5), 0)
        with pytest.raises(RuntimeError, match="already tracked"):
            out.take(make_packet(sid=6), 0)

    def test_clear_unknown_vc_is_noop(self):
        # A return that retires no table entry (a UO-RESP VC has none).
        out = make_out()
        out.take(make_packet(sid=5), 1)
        out.take(make_packet(sid=7, size=3, vnet=VNet.UO_RESP), 1)
        assert out.give_back(VNet.UO_RESP, 1, 3) is None
        assert out.sid_of_vc == {1: 5}
