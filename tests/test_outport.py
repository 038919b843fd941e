"""The sending end of a link against its definition.

:class:`~repro.noc.vc.OutPort` is the one place credits, the SID table,
VC selection and the flit + lookahead hand-off live; the router's
outports, the NIC's lanes and the mesh tester all send through it.  A
Hypothesis state machine drives random ``select`` / ``take`` /
``give_back`` sequences against a naive model kept here, and one timing
case pins the hand-off for the two kinds of sender side by side.
"""

from collections import Counter

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro.nic.controller import NetworkInterface
from repro.noc.config import NocConfig, NotificationConfig
from repro.noc.packet import Packet, VNet
from repro.noc.router import Router
from repro.noc.routing import EAST, LOCAL, WEST
from repro.noc.vc import OutPort

GO_REQ, UO_RESP = VNet.GO_REQ, VNet.UO_RESP

vnets = st.sampled_from([GO_REQ, UO_RESP])
sids = st.integers(0, 3)        # few sources, so SIDs collide often
seqs = st.integers(0, 1)
some_vc = st.integers(0, 6)     # counted down from the vnet's last VC
some_flits = st.integers(1, 3)  # reduced to what the VC can hold


class OutPortMachine(RuleBasedStateMachine):
    """Model: per VC its capacity and the flits in flight toward it, the
    SID each GO-REQ VC carries, and the (sid, seq) pairs the far NIC
    admits to the reserved VC."""

    @initialize(goreq=st.integers(1, 6), uoresp=st.integers(1, 3),
                goreq_depth=st.integers(1, 2), reserved=st.booleans(),
                bound=st.booleans())
    def build(self, goreq, uoresp, goreq_depth, reserved, bound):
        config = NocConfig(width=2, height=2, goreq_vcs=goreq,
                           goreq_vc_depth=goreq_depth, uoresp_vcs=uoresp,
                           reserved_vc=reserved)
        self.out = OutPort(config, None, LOCAL, 0)
        self.bound = bound
        self.admitted = set()
        if bound:
            self.out.admits = self.rvc_eligible
        self.normal = {GO_REQ: goreq, UO_RESP: uoresp}
        self.rvc = goreq if reserved else None
        self.capacity = {GO_REQ: goreq_depth, UO_RESP: self.out.depth[UO_RESP]}
        self.in_flight = {
            GO_REQ: [0] * (goreq + reserved), UO_RESP: [0] * uoresp}
        self.sid_at = {}

    def rvc_eligible(self, sid, seq):
        return (sid, seq) in self.admitted

    def packet(self, vnet, sid, seq, flits):
        return Packet(vnet=vnet, src=sid, dst=None, sid=sid, seq=seq,
                      size_flits=1 + (flits - 1) % self.capacity[vnet])

    def expected_vc(self, packet):
        vnet = packet.vnet
        if vnet == GO_REQ and packet.sid in self.sid_at.values():
            return None
        for vc in range(self.normal[vnet]):
            if self.in_flight[vnet][vc] == 0:
                return vc
        if vnet == GO_REQ and self.rvc is not None \
                and self.in_flight[GO_REQ][self.rvc] == 0 \
                and self.bound and (packet.sid, packet.seq) in self.admitted:
            return self.rvc
        return None

    def state(self):
        out = self.out
        return ([list(c) for c in out.credits], list(out.free_mask),
                out.rvc_free, dict(out.sid_of_vc), dict(out.sid_count))

    def vc_from_the_top(self, vnet, index):
        """Small draws (which Hypothesis favours) name the last VCs —
        the reserved one first, where there is one."""
        n_vcs = len(self.in_flight[vnet])
        return n_vcs - 1 - index % n_vcs

    def model_take(self, packet, vc):
        self.in_flight[packet.vnet][vc] += packet.size_flits
        if packet.vnet == GO_REQ:
            self.sid_at[vc] = packet.sid

    # -- rules -----------------------------------------------------------

    @rule(sid=sids, seq=seqs)
    def toggle_admission(self, sid, seq):
        self.admitted ^= {(sid, seq)}

    @rule(vnet=vnets, sid=sids, seq=seqs, flits=some_flits)
    def send_as_a_sender_does(self, vnet, sid, seq, flits):
        packet = self.packet(vnet, sid, seq, flits)
        vc = self.out.select(packet)
        assert vc == self.expected_vc(packet)
        if vc is not None:
            self.out.take(packet, vc)
            self.model_take(packet, vc)

    @rule(vnet=vnets, vc=some_vc, sid=sids, flits=some_flits)
    def take_any_vc(self, vnet, vc, sid, flits):
        """Unselected grants: a second source on a held VC, one source on
        two VCs, more flits than the VC has credits."""
        vc = self.vc_from_the_top(vnet, vc)
        packet = self.packet(vnet, sid, 0, flits)
        before = self.state()
        room = self.capacity[vnet] - self.in_flight[vnet][vc]
        if packet.size_flits > room:
            with pytest.raises(RuntimeError, match="credit underflow"):
                self.out.take(packet, vc)
        elif vnet == GO_REQ and vc in self.sid_at:
            with pytest.raises(RuntimeError, match="already tracked"):
                self.out.take(packet, vc)
        else:
            self.out.take(packet, vc)
            self.model_take(packet, vc)
            return
        assert self.state() == before

    @rule(vnet=vnets, vc=some_vc, flits=some_flits)
    def give_back_too_much(self, vnet, vc, flits):
        vc = self.vc_from_the_top(vnet, vc)
        before = self.state()
        with pytest.raises(RuntimeError, match="credit overflow"):
            self.out.give_back(vnet, vc, self.in_flight[vnet][vc] + flits)
        assert self.state() == before

    @precondition(lambda self: any(map(any, self.in_flight.values())))
    @rule(pick=st.integers(0, 20), flits=some_flits)
    def give_back(self, pick, flits):
        """Some or all of the flits one occupied VC holds come back."""
        busy = [(vnet, vc) for vnet, flying in self.in_flight.items()
                for vc, held in enumerate(flying) if held]
        vnet, vc = busy[pick % len(busy)]
        flits = 1 + (flits - 1) % self.in_flight[vnet][vc]
        self.in_flight[vnet][vc] -= flits
        retired = None
        if vnet == GO_REQ and self.in_flight[vnet][vc] == 0:
            sid = self.sid_at.pop(vc)
            if sid not in self.sid_at.values():
                retired = sid
        assert self.out.give_back(vnet, vc, flits) == retired

    # -- the record against the model ------------------------------------

    @invariant()
    def credits_plus_in_flight_is_capacity(self):
        for vnet, flying in self.in_flight.items():
            assert [held + f for held, f in
                    zip(self.out.credits[vnet], flying)] \
                == [self.capacity[vnet]] * len(flying)
        assert self.out.in_flight_flits() == sum(
            sum(flying) for flying in self.in_flight.values())

    @invariant()
    def flags_say_what_the_credits_say(self):
        for vnet, n_normal in self.normal.items():
            free = [vc for vc in range(n_normal)
                    if self.in_flight[vnet][vc] == 0]
            assert self.out.free_mask[vnet] == sum(1 << vc for vc in free)
        assert self.out.rvc_free == (
            self.rvc is not None and self.in_flight[GO_REQ][self.rvc] == 0)

    @invariant()
    def sid_table_is_the_models(self):
        assert self.out.sid_of_vc == self.sid_at
        assert self.out.sid_count == Counter(self.sid_at.values())


TestOutPortAgainstModel = OutPortMachine.TestCase
TestOutPortAgainstModel.settings = settings(
    max_examples=60, stateful_step_count=50, deadline=None)


class Sink:
    """A far end that records when each hand-off is due."""

    def __init__(self):
        self.lookaheads = []
        self.flits = []

    def deliver_lookahead(self, la, process_cycle):
        self.lookaheads.append((la.packet.pid, la.inport, process_cycle))

    def deliver_packet(self, packet, inport, vnet, vc_index, arrive_cycle):
        self.flits.append((packet.pid, inport, arrive_cycle))

    def queue_credit_release(self, outport, vnet, vc, flits, cycle):
        pass


def test_nic_and_router_hand_off_on_the_same_clock():
    """Both senders ST at cycle 10: lookahead due at 11, flit at 12."""
    config = NocConfig(width=3, height=3)
    node = config.width + 1          # dst = node + 1 leaves through EAST

    nic = NetworkInterface(node, config, NotificationConfig())
    local = Sink()
    nic.attach_router(local)
    nic.send_request("payload", dst=node + 1)
    nic.step(10)
    [injected] = local.flits
    assert local.lookaheads == [(injected[0], LOCAL, 11)]
    assert injected[1:] == (LOCAL, 12)

    router = Router(node, config)
    east, west = Sink(), Sink()
    router.connect(EAST, east, node + 1)
    router.connect(WEST, west, node - 1)
    packet = Packet(vnet=GO_REQ, src=0, dst=node + 1, sid=0, size_flits=1)
    # Buffered path: arrival at t arbitrates (and leaves) at t + 2.
    router.deliver_packet(packet, WEST, GO_REQ, 0, 8)
    for cycle in (8, 9, 10):
        assert east.flits == []
        router.step(cycle)
    assert east.lookaheads == [(packet.pid, WEST, 11)]
    assert east.flits == [(packet.pid, WEST, 12)]
