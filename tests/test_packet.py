"""Unit tests for packets and flit-count arithmetic."""

import pytest

from repro.noc.packet import Packet, VNet, data_packet_flits


class TestFlitCounts:
    def test_16_byte_channel_matches_table1(self):
        # Table 1: 32 B lines, 16 B channels -> 3-flit data packets.
        assert data_packet_flits(16, 32) == 3

    def test_8_byte_channel(self):
        # Sec. 5.2: 8 B channels need 5 flits per cache-line response.
        assert data_packet_flits(8, 32) == 5

    def test_32_byte_channel(self):
        assert data_packet_flits(32, 32) == 2

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            data_packet_flits(0, 32)


class TestPacket:
    def test_broadcast_detection(self):
        bcast = Packet(vnet=VNet.GO_REQ, src=0, dst=None, sid=0, size_flits=1)
        unicast = Packet(vnet=VNet.UO_RESP, src=0, dst=5, sid=0, size_flits=3)
        assert bcast.is_broadcast
        assert not unicast.is_broadcast

    def test_unique_pids(self):
        a = Packet(vnet=VNet.GO_REQ, src=0, dst=None, sid=0, size_flits=1)
        b = Packet(vnet=VNet.GO_REQ, src=0, dst=None, sid=0, size_flits=1)
        assert a.pid != b.pid

    def test_vnet_values(self):
        assert VNet.GO_REQ != VNet.UO_RESP
        assert int(VNet.GO_REQ) == 0 and int(VNet.UO_RESP) == 1
