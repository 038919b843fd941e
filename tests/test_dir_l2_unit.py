"""Unit tests for the directory-mode L2: marker semantics, deferral
rules, writeback acks — the race machinery the HT/LPD baselines rely on."""

from typing import List, Optional, Tuple

from repro.coherence.dir_l2 import DirectoryL2Controller
from repro.coherence.l2_controller import CacheConfig
from repro.coherence.messages import (CoherenceRequest, CoherenceResponse,
                                      DirForward, ReqKind, RespKind)
from repro.coherence.mosi import State

LINE = 0x4000_0000
HOME = 5


class ScriptedNic:
    def __init__(self, node=0):
        self.node = node
        self.sent_requests: List[Tuple[object, Optional[int]]] = []
        self.sent_responses: List[Tuple[object, int]] = []
        self._req_listener = None
        self._resp_listener = None
        self.accept_gate = None

    def add_request_listener(self, fn):
        self._req_listener = fn

    def add_response_listener(self, fn):
        self._resp_listener = fn

    def can_send_request(self):
        return True

    def send_request(self, payload, dst=None):
        self.sent_requests.append((payload, dst))

    def send_response(self, payload, dst, carries_data=True):
        self.sent_responses.append((payload, dst))

    def deliver_fwd(self, l2, fwd, cycle):
        self._req_listener(fwd, HOME, cycle, cycle)
        for c in range(cycle, cycle + 20):
            l2.step(c)

    def deliver_response(self, resp, cycle):
        self._resp_listener(resp, cycle)


def make_l2(node=0, requires_marker=True):
    nic = ScriptedNic(node)
    l2 = DirectoryL2Controller(
        node, nic, memory_map=lambda a: 8, home_map=lambda a: HOME,
        line_size=32, config=CacheConfig(use_region_tracker=False),
        requires_marker=requires_marker)
    return l2, nic


def snoop_for(req, seq=-1):
    return DirForward(request=req, action="snoop", home=HOME, sent_cycle=0,
                      seq=seq)


class TestMarkerGating:
    def test_completion_waits_for_marker(self):
        l2, nic = make_l2(requires_marker=True)
        l2.core_request("W", LINE, 0, token="t")
        req, dst = nic.sent_requests[0]
        assert dst == HOME
        data = CoherenceResponse(kind=RespKind.MEM_DATA, addr=LINE, dest=0,
                                 requester=0, req_id=req.req_id,
                                 served_by="memory")
        nic.deliver_response(data, 20)
        assert l2.state_of(LINE) is State.I   # gated on the marker
        nic.deliver_fwd(l2, snoop_for(req), 40)   # our own snoop returns
        assert l2.state_of(LINE) is State.M

    def test_lpd_mode_completes_without_marker(self):
        l2, nic = make_l2(requires_marker=False)
        l2.core_request("R", LINE, 0, token="t")
        req, _dst = nic.sent_requests[0]
        data = CoherenceResponse(kind=RespKind.DATA, addr=LINE, dest=0,
                                 requester=0, req_id=req.req_id)
        nic.deliver_response(data, 20)
        assert l2.state_of(LINE) is State.S


class TestSnoopDeferral:
    def test_earlier_serialized_snoop_acts_on_pre_state_at_marker(self):
        # A snoop the home serialized *before* our request (lower seq
        # than our marker's) must act on the pre-acquisition state.  The
        # mesh may deliver it before our marker; it parks until the
        # marker's seq proves which side of our serialization it is on,
        # then runs against the still-uninstalled state.
        l2, nic = make_l2()
        l2.array.fill(LINE, State.S)
        l2.core_request("W", LINE, 0, token="t")     # upgrade attempt
        other = CoherenceRequest(kind=ReqKind.GETX, addr=LINE, requester=7)
        nic.deliver_fwd(l2, snoop_for(other, seq=0), 10)
        assert l2.stats.counter("l2.snoops.parked") == 1
        assert l2.state_of(LINE) is State.S          # ambiguous: parked
        req, _ = nic.sent_requests[0]
        nic.deliver_fwd(l2, snoop_for(req, seq=1), 20)   # our marker
        assert l2.state_of(LINE) is State.I          # pre-state invalidated

    def test_later_serialized_snoop_defers_past_completion(self):
        # The converse race: a snoop serialized *after* our request
        # overtakes our marker in the mesh.  Treating its arrival order
        # as serialization order would no-op it against the
        # pre-acquisition state and leave a stale copy alive; the seq
        # comparison routes it to the post-completion deferral list.
        l2, nic = make_l2()
        l2.core_request("R", LINE, 0, token="t")
        req, _ = nic.sent_requests[0]
        other = CoherenceRequest(kind=ReqKind.GETX, addr=LINE, requester=7)
        nic.deliver_fwd(l2, snoop_for(other, seq=5), 10)  # overtook marker
        nic.deliver_fwd(l2, snoop_for(req, seq=4), 20)    # our marker
        assert l2.stats.counter("l2.snoops.deferred") == 1
        data = CoherenceResponse(kind=RespKind.MEM_DATA, addr=LINE, dest=0,
                                 requester=0, req_id=req.req_id,
                                 served_by="memory")
        nic.deliver_response(data, 40)
        for c in range(41, 70):
            l2.step(c)
        # Our read completed, then the later GETX invalidated the copy:
        # no stale S survives next to the new owner.
        assert l2.state_of(LINE) is State.I

    def test_post_marker_snoop_deferred(self):
        l2, nic = make_l2()
        l2.core_request("W", LINE, 0, token="t")
        req, _ = nic.sent_requests[0]
        nic.deliver_fwd(l2, snoop_for(req), 10)      # marker
        other = CoherenceRequest(kind=ReqKind.GETX, addr=LINE, requester=7)
        nic.deliver_fwd(l2, snoop_for(other), 20)
        assert l2.stats.counter("l2.snoops.deferred") == 1
        # Completion services the deferred snoop: data to 7, we end I.
        data = CoherenceResponse(kind=RespKind.MEM_DATA, addr=LINE, dest=0,
                                 requester=0, req_id=req.req_id)
        nic.deliver_response(data, 40)
        for c in range(41, 70):
            l2.step(c)
        dests = [d for r, d in nic.sent_responses
                 if getattr(r, "kind", None) is RespKind.DATA]
        assert dests == [7]
        assert l2.state_of(LINE) is State.I

    def test_stable_owner_serves_during_upgrade(self):
        # We own the line in O and upgrade; a pre-marker GETX snoop is
        # served from the stable copy instead of deferring (prevents
        # three-way deferral cycles).
        l2, nic = make_l2()
        l2.array.fill(LINE, State.O, version=4)
        l2.core_request("W", LINE, 0, token="t")
        other = CoherenceRequest(kind=ReqKind.GETX, addr=LINE, requester=3)
        nic.deliver_fwd(l2, snoop_for(other), 10)
        data_sent = [d for r, d in nic.sent_responses
                     if getattr(r, "kind", None) is RespKind.DATA]
        assert data_sent == [3]
        assert l2.state_of(LINE) is State.I


class TestUpgradeAndPutAcks:
    def test_upgrade_ack_completes(self):
        l2, nic = make_l2(requires_marker=False)
        l2.array.fill(LINE, State.O, version=2)
        l2.core_request("W", LINE, 0, token="t")
        req, _ = nic.sent_requests[0]
        ack = DirForward(request=req, action="upgrade_ack", home=HOME)
        nic.deliver_fwd(l2, ack, 20)
        assert l2.state_of(LINE) is State.M
        assert l2.line_version(LINE) == 3

    def test_put_ack_retires_wb_entry(self):
        l2, nic = make_l2(requires_marker=False)
        l2.array.fill(LINE, State.M, version=1)
        l2._evict(LINE, State.M, cycle=0)
        put = l2.wb_buffer[LINE].put
        # WB data went straight to the memory controller at eviction.
        assert any(getattr(r, "kind", None) is RespKind.WB_DATA
                   for r, _d in nic.sent_responses)
        ack = DirForward(request=put, action="put_ack", home=HOME)
        nic.deliver_fwd(l2, ack, 20)
        assert LINE not in l2.wb_buffer

    def test_wb_entry_serves_forward_before_ack(self):
        l2, nic = make_l2(requires_marker=False)
        l2.array.fill(LINE, State.M, version=6)
        l2._evict(LINE, State.M, cycle=0)
        other = CoherenceRequest(kind=ReqKind.GETS, addr=LINE, requester=4)
        fwd = DirForward(request=other, action="fwd_data", home=HOME)
        nic.deliver_fwd(l2, fwd, 10)
        data = [r for r, d in nic.sent_responses
                if getattr(r, "kind", None) is RespKind.DATA and d == 4]
        assert len(data) == 1 and data[0].version == 6
