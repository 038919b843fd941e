"""Unit tests for VC buffers and the credit and SID sides of an
:class:`~repro.noc.vc.OutPort`."""

import pytest

from repro.noc.config import NocConfig
from repro.noc.packet import Packet, VNet
from repro.noc.routing import LOCAL
from repro.noc.vc import InputPort, OutPort, VCBuffer


def make_packet(sid=0, size=1, vnet=VNet.GO_REQ):
    return Packet(vnet=vnet, src=sid, dst=None, sid=sid, size_flits=size)


def make_out(goreq_vcs=4, goreq_depth=1):
    """An unconnected sending end over *goreq_vcs* + 1 reserved GO-REQ
    VCs and two 3-flit UO-RESP VCs."""
    config = NocConfig(goreq_vcs=goreq_vcs, goreq_vc_depth=goreq_depth,
                       uoresp_vcs=2, uoresp_vc_depth=3, reserved_vc=True)
    return OutPort(config, endpoint=None, far_port=LOCAL, node=0)


class TestVCBuffer:
    def test_accept_and_drain(self):
        vc = VCBuffer(VNet.GO_REQ, 0, depth=1)
        packet = make_packet()
        vc.accept(packet, frozenset({1, 4}), cycle=10, pipeline_delay=2)
        assert vc.occupied
        assert vc.ready_cycle == 12
        assert not vc.complete_outport(1)
        assert vc.occupied
        assert vc.complete_outport(4)
        assert vc.free

    def test_overrun_raises(self):
        vc = VCBuffer(VNet.GO_REQ, 0, depth=1)
        vc.accept(make_packet(), frozenset({1}), 0, 2)
        with pytest.raises(RuntimeError):
            vc.accept(make_packet(), frozenset({1}), 0, 2)

    def test_oversize_packet_raises(self):
        vc = VCBuffer(VNet.UO_RESP, 0, depth=3)
        with pytest.raises(RuntimeError):
            vc.accept(make_packet(size=5, vnet=VNet.UO_RESP),
                      frozenset({1}), 0, 2)


class TestInputPort:
    def test_geometry_with_reserved(self):
        port = InputPort(4, 1, 2, 3, reserved_vc=True)
        goreq = port.vcs(VNet.GO_REQ)
        assert len(goreq) == 5
        assert goreq[-1].reserved
        assert len(port.vcs(VNet.UO_RESP)) == 2

    def test_occupancy_count(self):
        port = InputPort(2, 1, 2, 3, reserved_vc=False)
        assert port.occupied_buffers() == 0
        port.vc(VNet.GO_REQ, 0).accept(make_packet(), frozenset({1}), 0, 2)
        assert port.occupied_buffers() == 1


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
