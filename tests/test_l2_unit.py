"""Unit-level L2 controller tests using a scripted NIC (no real network).

These exercise transient-state corner cases that full-system runs only
hit probabilistically: FID deferral order, writeback-buffer snooping,
lost ownership, upgrade completion without data, version accounting.
"""

from typing import List, Optional, Tuple

import pytest

from repro.coherence.dir_l2 import DirectoryL2Controller
from repro.coherence.l2_controller import CacheConfig, L2Controller
from repro.coherence.messages import (CoherenceRequest, CoherenceResponse,
                                      DirForward, ReqKind, RespKind)
from repro.coherence.mosi import Action, State, on_remote_request
from repro.sim.engine import Engine

LINE = 0x4000_0000


class ScriptedNic:
    """Stands in for the NIC: records sends, lets tests deliver the
    ordered stream and responses by hand."""

    def __init__(self, node=0):
        self.node = node
        self.sent_requests: List[CoherenceRequest] = []
        self.sent_responses: List[Tuple[CoherenceResponse, int]] = []
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
        self.sent_requests.append(payload)

    def send_response(self, payload, dst, carries_data=True):
        self.sent_responses.append((payload, dst))

    # test drivers -----------------------------------------------------
    def deliver_ordered(self, l2, req, cycle):
        self._req_listener(req, req.requester, cycle, cycle)
        l2.step(cycle)

    def deliver_response(self, resp, cycle):
        self._resp_listener(resp, cycle)


def make_l2(node=0, **config_overrides):
    nic = ScriptedNic(node)
    config = CacheConfig(use_region_tracker=False, **config_overrides)
    l2 = L2Controller(node, nic, memory_map=lambda addr: 99, line_size=32,
                      config=config)
    return l2, nic


def drive(l2, cycles, start=0):
    for cycle in range(start, start + cycles):
        l2.step(cycle)


def remote(kind, requester=7, addr=LINE):
    return CoherenceRequest(kind=kind, addr=addr, requester=requester)


class TestMissFlow:
    def test_read_miss_issues_gets(self):
        l2, nic = make_l2()
        completions = []
        l2.set_completion_callback(
            lambda token, cycle, version: completions.append(token))
        assert l2.core_request("R", LINE, 0, token="t")
        assert len(nic.sent_requests) == 1
        req = nic.sent_requests[0]
        assert req.kind is ReqKind.GETS

        # Own request comes back in the global order...
        nic.deliver_ordered(l2, req, 20)
        assert not completions          # still waiting for data
        # ...then the owner's data arrives.
        resp = CoherenceResponse(kind=RespKind.DATA, addr=LINE, dest=0,
                                 requester=0, req_id=req.req_id,
                                 served_by="cache", version=3)
        nic.deliver_response(resp, 40)
        assert completions == ["t"]
        assert l2.state_of(LINE) is State.S
        assert l2.line_version(LINE) == 3

    def test_write_miss_becomes_modified_with_bumped_version(self):
        l2, nic = make_l2()
        l2.core_request("W", LINE, 0, token="t")
        req = nic.sent_requests[0]
        assert req.kind is ReqKind.GETX
        nic.deliver_ordered(l2, req, 20)
        resp = CoherenceResponse(kind=RespKind.MEM_DATA, addr=LINE, dest=0,
                                 requester=0, req_id=req.req_id,
                                 served_by="memory", version=5)
        nic.deliver_response(resp, 40)
        assert l2.state_of(LINE) is State.M
        assert l2.line_version(LINE) == 6   # the store made version 6

    def test_data_before_order_waits(self):
        l2, nic = make_l2()
        l2.core_request("R", LINE, 0, token="t")
        req = nic.sent_requests[0]
        resp = CoherenceResponse(kind=RespKind.DATA, addr=LINE, dest=0,
                                 requester=0, req_id=req.req_id)
        nic.deliver_response(resp, 10)      # data races ahead of order
        assert l2.state_of(LINE) is State.I
        nic.deliver_ordered(l2, req, 30)
        assert l2.state_of(LINE) is State.S

    def test_mshr_cap_respected(self):
        l2, _nic = make_l2(mshrs=2)
        assert l2.core_request("R", LINE, 0)
        assert l2.core_request("R", LINE + 32, 0)
        assert not l2.core_request("R", LINE + 64, 0)

    def test_duplicate_line_request_rejected(self):
        l2, _nic = make_l2()
        assert l2.core_request("R", LINE, 0)
        assert not l2.core_request("W", LINE, 0)


class TestUpgrade:
    def _fill_owned(self, l2, nic, state=State.O):
        l2.array.fill(LINE, state, version=2)

    def test_upgrade_completes_without_data(self):
        l2, nic = make_l2()
        self._fill_owned(l2, nic, State.O)
        completions = []
        l2.set_completion_callback(
            lambda token, cycle, version: completions.append(version))
        l2.core_request("W", LINE, 0, token="t")
        req = nic.sent_requests[0]
        assert req.kind is ReqKind.GETX
        nic.deliver_ordered(l2, req, 20)
        assert completions == [3]           # 2 + the upgrading store
        assert l2.state_of(LINE) is State.M

    def test_upgrade_loses_race_needs_data(self):
        # A remote GETX is ordered before ours: we are invalidated and
        # must then wait for data.
        l2, nic = make_l2()
        self._fill_owned(l2, nic, State.O)
        l2.core_request("W", LINE, 0, token="t")
        our_req = nic.sent_requests[0]
        nic.deliver_ordered(l2, remote(ReqKind.GETX, requester=7), 10)
        drive(l2, 15, start=11)
        assert l2.state_of(LINE) is State.I
        # We supplied data to the winner.
        assert any(r.dest == 7 for r, _d in nic.sent_responses)
        nic.deliver_ordered(l2, our_req, 30)
        mshr = l2.mshrs[our_req.req_id]
        assert mshr.needs_data


class TestSnoops:
    def test_owner_supplies_and_downgrades(self):
        l2, nic = make_l2()
        l2.array.fill(LINE, State.M, version=4)
        nic.deliver_ordered(l2, remote(ReqKind.GETS, 5), 10)
        drive(l2, 15, start=11)
        assert l2.state_of(LINE) is State.O
        resp, dst = nic.sent_responses[0]
        assert dst == 5 and resp.version == 4

    def test_deferred_snoops_serviced_in_order(self):
        l2, nic = make_l2()
        l2.core_request("W", LINE, 0, token="t")
        req = nic.sent_requests[0]
        nic.deliver_ordered(l2, req, 10)           # ours is ordered
        nic.deliver_ordered(l2, remote(ReqKind.GETS, 3), 12)
        nic.deliver_ordered(l2, remote(ReqKind.GETX, 4), 14)
        assert l2.stats.counter("l2.snoops.deferred") == 2
        resp = CoherenceResponse(kind=RespKind.MEM_DATA, addr=LINE, dest=0,
                                 requester=0, req_id=req.req_id,
                                 served_by="memory", version=0)
        nic.deliver_response(resp, 30)
        drive(l2, 15, start=31)
        # GETS from 3 first (we supply, stay O), then GETX from 4
        # (supply + invalidate).
        dests = [dst for _r, dst in nic.sent_responses
                 if _r.kind is RespKind.DATA]
        assert dests == [3, 4]
        assert l2.state_of(LINE) is State.I

    def test_fid_overflow_stalls_stream(self):
        l2, nic = make_l2(fid_list_size=1)
        l2.core_request("W", LINE, 0, token="t")
        req = nic.sent_requests[0]
        nic.deliver_ordered(l2, req, 10)
        nic.deliver_ordered(l2, remote(ReqKind.GETS, 3), 12)
        nic.deliver_ordered(l2, remote(ReqKind.GETS, 4), 14)
        assert l2.stats.counter("l2.snoops.fid_stall") >= 1
        assert not l2.can_accept_ordered() or True   # queue may back up


class TestWritebacks:
    def test_wb_entry_serves_snoops_until_put_ordered(self):
        l2, nic = make_l2(l2_size=128, l2_ways=2)
        l2.array.fill(LINE, State.M, version=9)
        # Force the eviction path directly.
        l2._evict(LINE, State.M, cycle=0)
        put = l2.wb_buffer[LINE].put
        assert put.kind is ReqKind.PUT
        # A snoop hits the writeback buffer and still gets version 9.
        nic.deliver_ordered(l2, remote(ReqKind.GETS, 6), 5)
        drive(l2, 15, start=6)
        resp, dst = next((r, d) for r, d in nic.sent_responses
                         if r.kind is RespKind.DATA)
        assert dst == 6 and resp.version == 9
        # Our PUT is ordered: WB_DATA goes to the memory controller.
        nic.deliver_ordered(l2, put, 40)
        wb = [r for r, _d in nic.sent_responses
              if r.kind is RespKind.WB_DATA]
        assert len(wb) == 1 and wb[0].version == 9
        assert LINE not in l2.wb_buffer

    def test_lost_ownership_suppresses_writeback(self):
        l2, nic = make_l2()
        l2.array.fill(LINE, State.M, version=1)
        l2._evict(LINE, State.M, cycle=0)
        put = l2.wb_buffer[LINE].put
        # A GETX is ordered before our PUT: the winner gets the data and
        # our PUT becomes stale.
        nic.deliver_ordered(l2, remote(ReqKind.GETX, 8), 5)
        drive(l2, 15, start=6)
        assert l2.wb_buffer[LINE].lost_ownership
        nic.deliver_ordered(l2, put, 40)
        assert not any(r.kind is RespKind.WB_DATA
                       for r, _d in nic.sent_responses)
        assert l2.stats.counter("l2.writebacks.stale") == 1


class TestHitPath:
    def test_read_hit_reports_version(self):
        l2, nic = make_l2()
        l2.array.fill(LINE, State.S, version=7)
        seen = []
        l2.set_completion_callback(
            lambda token, cycle, version: seen.append(version))
        l2.core_request("R", LINE, 0, token="t")
        drive(l2, 15, start=1)
        assert seen == [7]

    def test_write_hit_in_m_bumps_version(self):
        l2, nic = make_l2()
        l2.array.fill(LINE, State.M, version=7)
        seen = []
        l2.set_completion_callback(
            lambda token, cycle, version: seen.append(version))
        l2.core_request("W", LINE, 0, token="t")
        drive(l2, 15, start=1)
        assert seen == [8]
        assert l2.line_version(LINE) == 8


# ----------------------------------------------------------------------
# One contract for both L2 classes
# ----------------------------------------------------------------------

HOME = 5


def make_dir_l2(nic, node=0):
    return DirectoryL2Controller(
        node, nic, memory_map=lambda addr: 99, home_map=lambda addr: HOME,
        line_size=32, config=CacheConfig(use_region_tracker=False))


def make_snoopy_l2(nic, node=0):
    return L2Controller(node, nic, memory_map=lambda addr: 99, line_size=32,
                        config=CacheConfig(use_region_tracker=False))


class GatedNic(ScriptedNic):
    """Refuses requests until the engine reaches *opens_at*, and stamps
    every send with the cycle it happened in."""

    def __init__(self, engine, opens_at):
        super().__init__()
        self.engine = engine
        self.opens_at = opens_at

    def can_send_request(self):
        return self.engine.cycle >= self.opens_at

    def send_request(self, payload, dst=None):
        self.sent_requests.append((payload, dst, self.engine.cycle))


@pytest.mark.parametrize("quiescence", [True, False])
@pytest.mark.parametrize("make, dst", [(make_snoopy_l2, None),
                                       (make_dir_l2, HOME)])
def test_request_the_nic_refused_is_sent_when_it_opens(make, dst,
                                                       quiescence):
    """Every hand-over of work wakes its receiver: an idle (sleeping) L2
    that queues a request behind NIC back-pressure must tick until the
    NIC takes it."""
    engine = Engine(quiescence=quiescence)
    nic = GatedNic(engine, opens_at=5)
    l2 = make(nic)
    engine.register(l2)
    engine.run(3)                      # nothing to do: the L2 sleeps
    assert l2.core_request("R", LINE, engine.cycle, token="t")
    assert nic.sent_requests == []     # refused, queued
    engine.run(10)
    assert [(req.kind, to, cycle) for req, to, cycle in nic.sent_requests] \
        == [(ReqKind.GETS, dst, 5)]


def _deliver_peer_request(l2, nic, req, cycle):
    nic.deliver_ordered(l2, req, cycle)


def _deliver_dir_snoop(l2, nic, req, cycle):
    fwd = DirForward(request=req, action="snoop", home=HOME, sent_cycle=0)
    nic._req_listener(fwd, HOME, cycle, cycle)
    l2.step(cycle)


@pytest.mark.parametrize("make, deliver", [
    (make_snoopy_l2, _deliver_peer_request),
    (make_dir_l2, _deliver_dir_snoop)], ids=["peer-request", "dir-snoop"])
@pytest.mark.parametrize("kind", [ReqKind.GETS, ReqKind.GETX])
@pytest.mark.parametrize("state", list(State))
def test_both_inbound_shapes_run_the_mosi_transition(state, kind, make,
                                                     deliver):
    """A snoopy peer request and a directory ``snoop`` forward apply the
    same MOSI transition: end state, inclusion, the invalidation count
    and exactly one data reply when the table says SEND_DATA."""
    nic = ScriptedNic()
    l2 = make(nic)
    l1_invalidated = []
    l2.set_l1_invalidate(l1_invalidated.append)
    if state is not State.I:
        l2.array.fill(LINE, state, version=4)
    expected = on_remote_request(state, kind)

    deliver(l2, nic, remote(kind, requester=7), 3)
    drive(l2, 15, start=4)

    assert l2.state_of(LINE) is expected.next_state
    assert l1_invalidated == (
        [LINE] if Action.INVALIDATE_L1 in expected.actions else [])
    dropped = state is not State.I and expected.next_state is State.I
    assert l2.stats.counter("l2.invalidations") == int(dropped)
    replies = [(resp.kind, resp.version, resp.src, dst)
               for resp, dst in nic.sent_responses]
    assert replies == ([(RespKind.DATA, 4, 0, 7)]
                       if Action.SEND_DATA in expected.actions else [])
