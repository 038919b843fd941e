"""Memory controller tests: owner tracking, writeback valid-bit blocking,
stale PUT handling, directory-mode MemRead service."""

from typing import List

from repro.coherence.messages import (CoherenceRequest, CoherenceResponse,
                                      MemRead, ReqKind, RespKind)
from repro.memory.controller import (AddressInterleavedMap, MemoryConfig,
                                     MemoryController)


class FakeNic:
    """Captures responses the MC sends."""

    def __init__(self, node=3):
        self.node = node
        self.sent: List[CoherenceResponse] = []
        self._req_listener = None
        self._resp_listener = None

    def add_request_listener(self, fn):
        self._req_listener = fn

    def add_response_listener(self, fn):
        self._resp_listener = fn

    def send_response(self, payload, dst, carries_data=True):
        self.sent.append(payload)

    # test drivers ---------------------------------------------------------
    def deliver_ordered(self, req, cycle):
        self._req_listener(req, req.requester, cycle, cycle)

    def deliver_response(self, resp, cycle):
        self._resp_listener(resp, cycle)


def make_mc(snoopy=True):
    nic = FakeNic()
    mc = MemoryController(3, nic, owns_addr=lambda addr: True, line_size=32,
                          config=MemoryConfig(), snoopy=snoopy)
    return mc, nic


def drain(mc, until_cycle):
    for cycle in range(until_cycle):
        mc.step(cycle)


def gets(addr, requester=1):
    return CoherenceRequest(kind=ReqKind.GETS, addr=addr,
                            requester=requester)


def getx(addr, requester=1):
    return CoherenceRequest(kind=ReqKind.GETX, addr=addr,
                            requester=requester)


def put(addr, requester=1):
    return CoherenceRequest(kind=ReqKind.PUT, addr=addr, requester=requester)


class TestSnoopyMemoryController:
    def test_gets_served_when_memory_owns(self):
        mc, nic = make_mc()
        mc._on_ordered_request(gets(0x100, 1), 1, 0, 0)
        drain(mc, 200)
        assert len(nic.sent) == 1
        resp = nic.sent[0]
        assert resp.kind is RespKind.MEM_DATA and resp.dest == 1

    def test_gets_ignored_when_cache_owns(self):
        mc, nic = make_mc()
        mc._on_ordered_request(getx(0x100, 2), 2, 0, 0)   # 2 becomes owner
        nic.sent.clear()
        mc._on_ordered_request(gets(0x100, 1), 1, 10, 10)
        drain(mc, 300)
        # Only the original GETX got memory data; the GETS is the owner's.
        assert all(r.dest != 1 for r in nic.sent)

    def test_getx_transfers_ownership(self):
        mc, nic = make_mc()
        mc._on_ordered_request(getx(0x100, 2), 2, 0, 0)
        assert mc.owner[0x100] == 2
        mc._on_ordered_request(getx(0x100, 4), 4, 10, 10)
        assert mc.owner[0x100] == 4
        drain(mc, 300)
        # Memory served only the first GETX (owner was memory then).
        assert len(nic.sent) == 1 and nic.sent[0].dest == 2

    def test_put_returns_ownership_and_blocks_until_data(self):
        mc, nic = make_mc()
        mc._on_ordered_request(getx(0x100, 2), 2, 0, 0)
        drain(mc, 200)
        nic.sent.clear()
        mc._on_ordered_request(put(0x100, 2), 2, 210, 210)
        assert 0x100 not in mc.owner
        assert mc.wb_pending.get(0x100)
        # A GETS racing the writeback data must wait.
        mc._on_ordered_request(gets(0x100, 5), 5, 220, 220)
        drain(mc, 400)
        assert not nic.sent
        wb = CoherenceResponse(kind=RespKind.WB_DATA, addr=0x100, dest=3,
                               requester=2, req_id=0)
        mc._on_response(wb, 410)
        drain(mc, 700)
        assert len(nic.sent) == 1 and nic.sent[0].dest == 5

    def test_stale_put_ignored(self):
        mc, nic = make_mc()
        mc._on_ordered_request(getx(0x100, 2), 2, 0, 0)
        mc._on_ordered_request(getx(0x100, 4), 4, 10, 10)  # 4 now owns
        mc._on_ordered_request(put(0x100, 2), 2, 20, 20)   # stale
        assert mc.owner[0x100] == 4
        assert not mc.wb_pending.get(0x100)

    def test_address_filter(self):
        nic = FakeNic()
        mc = MemoryController(3, nic, owns_addr=lambda addr: False,
                              line_size=32)
        mc._on_ordered_request(gets(0x100), 1, 0, 0)
        drain(mc, 200)
        assert not nic.sent

    def test_memory_map_interleaves(self):
        mmap = AddressInterleavedMap([3, 33], line_size=32)
        homes = {mmap(line * 32) for line in range(8)}
        assert homes == {3, 33}


class TestDirectoryModeMemoryController:
    def test_snoopy_logic_disabled(self):
        mc, nic = make_mc(snoopy=False)
        mc._on_ordered_request(gets(0x100, 1), 1, 0, 0)
        drain(mc, 200)
        assert not nic.sent

    def test_mem_read_served(self):
        mc, nic = make_mc(snoopy=False)
        msg = MemRead(request=gets(0x100, 7), home=12, sent_cycle=0)
        mc._on_ordered_request(msg, 12, 5, 5)
        drain(mc, 200)
        assert len(nic.sent) == 1
        resp = nic.sent[0]
        assert resp.kind is RespKind.MEM_DATA
        assert resp.dest == 7
        assert resp.served_by == "memory"
        assert "dir_to_mem" in resp.stamps
