"""Wake-by-event router: every unblock site wakes exactly the slots
parked on it.

A single :class:`~repro.noc.router.Router` is driven by hand (no engine,
so ``idle_until``/``wake`` are inert) with recording sinks on all five
ports.  Slots are parked by exhausting the credits of an output port,
then one event is fired and the SA-I scans of that cycle are recorded:
they must be exactly the slots registered for the event.  The system
tests at the bottom cover what a lone router cannot: checkpoints with
non-empty registries, mode invariance of the kernel counters, and the
meta-channel export.
"""

import copy
import json

from repro.core.config import ChipConfig
from repro.experiments import SystemSpec, execute_system_spec
from repro.experiments.checkpoint_exec import resume_spec
from repro.experiments.sweep import SweepResult, snapshot_spec
from repro.noc.config import NocConfig
from repro.noc.packet import Packet, VNet
from repro.noc.router import (PORTS, WAKE_CREDIT, WAKE_ORDER, WAKE_RETRY,
                              WAKE_RVC, WAKE_SID, Lookahead, Router,
                              _BypassGrant)
from repro.noc.routing import EAST, LOCAL, NORTH, SOUTH, WEST
from repro.sim.engine import forced_quiescence

GO_REQ, UO_RESP = VNet.GO_REQ, VNet.UO_RESP


class Sink:
    """Downstream endpoint that records what the router hands it."""

    def __init__(self):
        self.packets = []
        self.lookaheads = []
        self.credits = []

    def deliver_packet(self, packet, inport, vnet, vc_index, arrive_cycle):
        self.packets.append((packet, vnet, vc_index))

    def deliver_lookahead(self, la, process_cycle):
        self.lookaheads.append((la.packet, la.inport, la.echo, process_cycle))

    def queue_credit_release(self, outport, vnet, vc, flits, cycle):
        self.credits.append((vnet, vc, flits))


class Bench:
    """The centre router of a mesh, all ports wired to sinks.  Node ids
    are chosen so that ``dst = node + 1`` leaves through EAST and
    ``dst = node - 1`` through WEST."""

    def __init__(self, config=None, bound=True):
        self.config = config or NocConfig(width=3, height=3)
        self.node = self.config.width + 1
        self.admitted = set()       # (sid, seq) the NICs admit to an rVC
        self.router = Router(self.node, self.config)
        self.sinks = [Sink() for _port in PORTS]
        for port in PORTS:
            self.router.connect(port, self.sinks[port], self.node)
        if bound:
            # Every port names this node as its downstream: the bench
            # stands in for that node's NIC.
            self.router.bind_rvc_direct({self.node: self})
        self.wakes = 0
        self.router.wake = self._count_wake
        self.stride = self.router._stride
        self.cycle = 0
        self._filler_sid = 1000

    def _count_wake(self, cycle=None):
        self.wakes += 1

    def rvc_eligible(self, sid, seq):
        return (sid, seq) in self.admitted

    def bit(self, inport, slot):
        return 1 << (inport * self.stride + slot)

    def goreq(self, sid, dst, seq=0):
        return Packet(vnet=GO_REQ, src=sid, dst=dst, sid=sid, size_flits=1,
                      seq=seq)

    def occupy(self, port, vnet, vc, sid=None):
        """Take downstream *vc* of *port* with a filler packet."""
        if sid is None:
            self._filler_sid += 1
            sid = self._filler_sid
        filler = Packet(vnet=vnet, src=0, dst=0, sid=sid, size_flits=1)
        self.router.out[port].take(filler, vc)

    def exhaust(self, port, vnet):
        """Occupy every normal VC of *vnet* downstream of *port*."""
        n_vcs = (self.config.goreq_vcs if vnet == GO_REQ
                 else self.config.uoresp_vcs)
        for vc in range(n_vcs):
            self.occupy(port, vnet, vc)

    def scans(self):
        """Step one cycle; the slot bits SA-I scanned in it."""
        seen = []
        real = self.router._scan

        def spy(cycle, pending):
            seen.extend(1 << i for i in range(pending.bit_length())
                        if pending >> i & 1)
            return real(cycle, pending)

        self.router._scan = spy
        try:
            self.router.step(self.cycle)
        finally:
            del self.router._scan
        self.cycle += 1
        return sorted(seen)

    def park(self, *arrivals):
        """Buffer ``(packet, inport, vc_index)`` arrivals and step until
        every one of them has been scanned and parked."""
        for packet, inport, vc_index in arrivals:
            self.router.deliver_packet(packet, inport, packet.vnet,
                                       vc_index, self.cycle)
        for _ in range(3):
            self.scans()
        assert self.router._dirty == 0
        assert self.router._n_buffered == len(arrivals)

    def credit(self, port, vnet, vc):
        self.router.queue_credit_release(port, vnet, vc, 1, self.cycle)

    def sent(self, port):
        return [(p.sid, vc) for p, _vnet, vc in self.sinks[port].packets]


class TestCreditWakes:
    def test_goreq_credit_wakes_that_ports_goreq_waiters(self):
        b = Bench()
        b.exhaust(EAST, GO_REQ)
        b.exhaust(WEST, GO_REQ)
        a_bit, b_bit, c_bit = b.bit(WEST, 0), b.bit(NORTH, 1), b.bit(EAST, 0)
        b.park((b.goreq(1, b.node + 1), WEST, 0),
               (b.goreq(2, b.node + 1), NORTH, 1),
               (b.goreq(3, b.node - 1), EAST, 0))
        r = b.router
        assert r._vc_wait[GO_REQ] == {EAST: a_bit | b_bit, WEST: c_bit}
        assert r._rvc_wait[EAST] == {1: a_bit, 2: b_bit}
        assert r.wakeups[WAKE_RETRY] == 3        # the three first scans

        b.credit(EAST, GO_REQ, 0)
        assert b.scans() == [b_bit, a_bit]       # NORTH < WEST; not c_bit
        assert r.wakeups[WAKE_CREDIT] == 2
        assert b.sent(EAST) == [(2, 0)]          # one VC, one winner
        # The SA-O loser was eligible, so it stays dirty, finds the VC
        # gone next cycle and parks again.
        assert b.scans() == [a_bit]
        assert r._dirty == 0 and r._n_buffered == 2
        assert r._vc_wait[GO_REQ] == {EAST: a_bit, WEST: c_bit}
        assert b.scans() == []

    def test_uoresp_credit_wakes_only_uoresp_waiters(self):
        b = Bench()
        b.exhaust(EAST, GO_REQ)
        b.exhaust(EAST, UO_RESP)
        resp = Packet(vnet=UO_RESP, src=0, dst=b.node + 1, sid=0,
                      size_flits=1)
        resp_bit = b.bit(WEST, b.config.goreq_vcs)     # UO-RESP VC 0
        b.park((b.goreq(1, b.node + 1), WEST, 0), (resp, WEST, 0))
        assert b.router._vc_wait[UO_RESP] == {EAST: resp_bit}

        b.credit(EAST, UO_RESP, 1)
        assert b.scans() == [resp_bit]
        assert [p.vnet for p, _v, _vc in b.sinks[EAST].packets] == [UO_RESP]
        assert b.router._vc_wait[GO_REQ] == {EAST: b.bit(WEST, 0)}

    def test_rollback_wakes_like_a_credit(self):
        b = Bench()
        b.exhaust(EAST, GO_REQ)
        a_bit = b.bit(WEST, 0)
        b.park((b.goreq(1, b.node + 1), WEST, 0))
        # A pre-allocation holding EAST's GO-REQ VC 3 whose packet shows
        # up a cycle late: the grant is rolled back.
        late = b.goreq(2, b.node + 1)
        b.router._bypass_grants[late.pid] = _BypassGrant(
            arrival_cycle=b.cycle - 1, outports=frozenset({EAST}),
            granted_vcs={EAST: 3}, inport=NORTH)
        b.router.deliver_packet(late, NORTH, GO_REQ, 0, b.cycle)
        assert b.scans() == [a_bit]
        assert b.router.stats.counter("router.grants.stale") == 1
        assert b.sent(EAST) == [(1, 3)]

    def test_credit_eaten_by_a_lookahead_wakes_no_normal_vc(self):
        b = Bench()
        b.exhaust(EAST, GO_REQ)
        a_bit = b.bit(WEST, 0)
        b.park((b.goreq(1, b.node + 1), WEST, 0))
        # Same cycle: VC 0 comes back and a lookahead asks for EAST.
        b.credit(EAST, GO_REQ, 0)
        b.router.deliver_lookahead(
            Lookahead(packet=b.goreq(2, b.node + 1), inport=NORTH), b.cycle)
        assert b.scans() == []
        assert b.router.stats.counter("noc.la.granted") == 1
        assert b.router.wakeups[WAKE_CREDIT] == 0
        assert b.router._vc_wait[GO_REQ] == {EAST: a_bit}


class TestSidWakes:
    def test_sid_retirement_wakes_that_sid_only(self):
        b = Bench()
        b.occupy(EAST, GO_REQ, 0, sid=7)
        b.occupy(EAST, GO_REQ, 1, sid=8)
        a_bit, b_bit = b.bit(WEST, 0), b.bit(NORTH, 0)
        b.park((b.goreq(7, b.node + 1, seq=1), WEST, 0),
               (b.goreq(8, b.node + 1, seq=1), NORTH, 0))
        r = b.router
        assert r._sid_wait[EAST] == {7: a_bit, 8: b_bit}
        assert r._vc_wait[GO_REQ] == {}          # VCs 2 and 3 are free

        b.credit(EAST, GO_REQ, 0)
        assert b.scans() == [a_bit]
        assert r.wakeups[WAKE_SID] == 1 and r.wakeups[WAKE_CREDIT] == 0
        assert [sid for sid, _vc in b.sent(EAST)] == [7]
        assert r._sid_wait[EAST] == {8: b_bit}


class TestReservedVcWakes:
    def _parked_on_rvc(self, rvc_busy):
        b = Bench()
        b.exhaust(EAST, GO_REQ)
        if rvc_busy:
            b.occupy(EAST, GO_REQ, b.config.reserved_vc_index())
        b.park((b.goreq(1, b.node + 1), WEST, 0),
               (b.goreq(2, b.node + 1), NORTH, 0))
        b.wakes = 0
        return b, b.bit(WEST, 0), b.bit(NORTH, 0)

    def test_order_progress_for_another_sid_wakes_nobody(self):
        b, _a_bit, _b_bit = self._parked_on_rvc(rvc_busy=False)
        b.admitted.add((1, 0))
        b.router.note_order_progress(EAST, 9)      # nobody parked on 9
        b.router.note_order_progress(SOUTH, 1)     # nobody parked there
        assert b.router._dirty == 0 and b.wakes == 0

    def test_order_progress_wakes_the_admitted_waiter(self):
        b, a_bit, b_bit = self._parked_on_rvc(rvc_busy=False)
        r = b.router
        r.note_order_progress(EAST, 1)             # NIC still says no
        assert r._dirty == 0 and b.wakes == 0
        assert r._rvc_wait[EAST] == {1: a_bit, 2: b_bit}

        b.admitted.add((1, 0))
        r.note_order_progress(EAST, 1)
        assert r._dirty == a_bit and b.wakes == 1
        assert r.wakeups[WAKE_ORDER] == 1
        assert b.scans() == [a_bit]
        assert b.sent(EAST) == [(1, b.config.reserved_vc_index())]
        assert r._rvc_wait[EAST] == {2: b_bit}

    def test_order_progress_while_the_rvc_is_busy_waits_for_its_release(self):
        b, a_bit, b_bit = self._parked_on_rvc(rvc_busy=True)
        b.admitted.add((1, 0))
        b.router.note_order_progress(EAST, 1)
        assert b.router._dirty == 0 and b.wakes == 0

    def test_rvc_release_wakes_only_whom_the_nic_admits(self):
        b, a_bit, b_bit = self._parked_on_rvc(rvc_busy=True)
        r = b.router
        rvc = b.config.reserved_vc_index()
        b.admitted.add((2, 0))
        b.credit(EAST, GO_REQ, rvc)
        assert b.scans() == [b_bit]
        assert r.wakeups[WAKE_RVC] == 1 and r.wakeups[WAKE_CREDIT] == 0
        assert b.sent(EAST) == [(2, rvc)]
        assert r._rvc_wait[EAST] == {1: a_bit}

    def test_an_outport_with_no_bound_nic_never_selects_the_rvc(self):
        b = Bench(bound=False)
        b.admitted.add((1, 0))          # nobody is there to be asked
        b.exhaust(EAST, GO_REQ)
        a_bit = b.bit(WEST, 0)
        b.park((b.goreq(1, b.node + 1), WEST, 0))
        b.wakes = 0
        r = b.router
        assert r._rvc_wait[EAST] == {1: a_bit}
        r.note_order_progress(EAST, 1)
        assert r._dirty == 0 and b.wakes == 0
        assert r.out[EAST].select(b.goreq(1, b.node + 1)) is None
        # The same packet goes the moment a NIC is bound and admits it.
        r.bind_rvc_direct({b.node: b})
        r.note_order_progress(EAST, 1)
        assert b.scans() == [a_bit]
        assert b.sent(EAST) == [(1, b.config.reserved_vc_index())]

    def test_packet_in_a_reserved_vc_beats_the_lookahead_to_a_credit(self):
        b = Bench()
        b.exhaust(EAST, GO_REQ)
        rvc = b.config.reserved_vc_index()
        rvc_bit = b.bit(WEST, b.stride - 1)
        b.park((b.goreq(1, b.node + 1), WEST, rvc))
        assert b.router._rvc_slots & rvc_bit
        b.credit(EAST, GO_REQ, 0)
        b.router.deliver_lookahead(
            Lookahead(packet=b.goreq(2, b.node + 1), inport=NORTH), b.cycle)
        assert b.scans() == [rvc_bit]
        assert b.sent(EAST) == [(1, 0)]
        assert b.router.stats.counter("noc.la.granted") == 0


def _router_state(router):
    """Everything a bypass grant may move, as plain comparable data."""
    outs = [(out.credits, out.free_mask, out.rvc_free, out.sid_of_vc,
             out.sid_count) for out in router.out]
    wheels = [(wheel._buckets, wheel.min_due) for wheel in
              (router._arrivals, router._lookaheads, router._credit_returns,
               router._retries)]
    return copy.deepcopy((outs, router._dirty, router._vc_wait,
                          router._sid_wait, router._rvc_wait, router._freed,
                          wheels, router.wakeups, router.port_free_at,
                          router._bypass_grants))


class TestRefusedBypass:
    def test_a_refused_grant_takes_and_gives_back_nothing(self):
        """A lookahead for SOUTH + LOCAL where LOCAL has no VC: the grant
        is refused before it takes SOUTH's VC, so nothing — credits, SID
        tables, masks, registries, wheels, wake counters — moves, and
        no credit is handed back."""
        b = Bench()
        r = b.router
        b.exhaust(LOCAL, GO_REQ)
        b.exhaust(SOUTH, GO_REQ)
        a_bit = b.bit(WEST, 0)
        b.park((b.goreq(1, b.node - b.config.width), WEST, 0))
        assert r._vc_wait[GO_REQ] == {SOUTH: a_bit}
        # This cycle SOUTH's VC 0 comes back (its waiter is released only
        # after the lookaheads) and a broadcast lookahead travelling south
        # asks for SOUTH and LOCAL.
        b.credit(SOUTH, GO_REQ, 0)
        broadcast = Packet(vnet=GO_REQ, src=2, dst=None, sid=2, size_flits=1)
        r.deliver_lookahead(Lookahead(broadcast, NORTH), b.cycle)

        grants, returned = [], []
        real_grant = r._grant_bypass

        def spy(cycle, la, outports):
            r._release_credit = lambda *args: returned.append(args)
            for out in r.out:
                out.give_back = lambda *args: returned.append(args)
            before = _router_state(r)
            granted = real_grant(cycle, la, outports)
            del r._release_credit
            for out in r.out:
                del out.give_back
            grants.append((list(outports), granted, before,
                           _router_state(r)))
            return granted

        r._grant_bypass = spy
        b.scans()
        [(outports, granted, before, after)] = grants
        assert outports == [SOUTH, LOCAL]
        assert granted is False and returned == []
        assert after == before
        assert r.stats.counter("noc.la.denied") == 1
        # The credit stayed unclaimed, so it went to the parked packet.
        assert b.sent(SOUTH) == [(1, 0)]


class TestOneLookaheadPerHop:
    def test_the_grant_sends_nothing_and_the_transit_one_echo(self):
        b = Bench()
        packet = b.goreq(2, b.node + 1)
        b.router.deliver_lookahead(Lookahead(packet, NORTH), b.cycle)
        b.router.deliver_packet(packet, NORTH, GO_REQ, 0, b.cycle + 1)
        b.scans()
        assert b.router.stats.counter("noc.la.granted") == 1
        assert b.sinks[EAST].lookaheads == []
        b.scans()                                   # ST of the bypass
        assert b.sent(EAST) == [(2, 0)]
        assert b.sinks[EAST].lookaheads == [(packet, WEST, True, b.cycle)]

    def test_a_buffered_forward_sends_one_plain_lookahead(self):
        b = Bench()
        packet = b.goreq(2, b.node + 1)
        b.router.deliver_packet(packet, NORTH, GO_REQ, 0, b.cycle)
        for _ in range(3):
            b.scans()
        assert b.sent(EAST) == [(2, 0)]
        assert b.sinks[EAST].lookaheads == [(packet, WEST, False, b.cycle)]

    def test_an_echo_books_one_lost_arbitration_tick(self):
        b = Bench()
        stats = b.router.stats
        b.router.deliver_lookahead(
            Lookahead(b.goreq(2, b.node + 1), NORTH), b.cycle)
        b.scans()
        assert stats.counter("noc.la.granted") == 1
        assert "noc.la.lost_arbitration" not in stats.snapshot()
        b.router.deliver_lookahead(
            Lookahead(b.goreq(3, b.node - 1), NORTH, echo=True), b.cycle)
        b.scans()
        assert stats.counter("noc.la.granted") == 2     # it still wins
        assert stats.counter("noc.la.lost_arbitration") == 1
        assert b.router.kernel_counters()["la_echoes"] == 1


class TestSlotKeyWidth:
    def test_sixteen_vc_ports_get_distinct_slots(self):
        """``chip_64core`` has 16 GO-REQ VCs: 19 slots per port, so slot
        keys run past 64 and past any fixed 8-slot stride."""
        b = Bench(ChipConfig.chip_64core().noc)
        assert b.stride == 19
        b.exhaust(EAST, GO_REQ)
        b.exhaust(EAST, UO_RESP)
        resp = Packet(vnet=UO_RESP, src=0, dst=b.node + 1, sid=0,
                      size_flits=1)
        hi_bit, lo_bit = b.bit(LOCAL, 15), b.bit(WEST, 15)
        resp_bit = b.bit(LOCAL, 16 + 1)
        b.park((b.goreq(1, b.node + 1), LOCAL, 15),
               (b.goreq(2, b.node + 1), WEST, 15),
               (resp, LOCAL, 1))
        assert hi_bit.bit_length() - 1 == 4 * 19 + 15
        r = b.router
        assert r._vc_wait[GO_REQ] == {EAST: hi_bit | lo_bit}
        assert r._vc_wait[UO_RESP] == {EAST: resp_bit}

        b.credit(EAST, GO_REQ, 9)
        assert b.scans() == [lo_bit, hi_bit]
        assert b.sent(EAST) == [(2, 9)]
        assert b.scans() == [hi_bit]             # the SA-O loser re-parks
        b.credit(EAST, UO_RESP, 0)
        assert b.scans() == [resp_bit]
        # The upstream credit names the input VC the packet sat in.
        assert (UO_RESP, 1, 1) in b.sinks[LOCAL].credits


# ---------------------------------------------------------------------------
# Whole systems: checkpoints, mode invariance, the meta channel
# ---------------------------------------------------------------------------

SATURATED = {"kind": "benchmark", "name": "fft", "ops_per_core": 16,
             "workload_scale": 0.05, "think_scale": 0.5, "seed": 0}


def _spec():
    return SystemSpec("scorpio", ChipConfig.variant(3, 3),
                      workload=SATURATED)


def _payload_bytes(result):
    return json.dumps(result.payload(), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def _router_meta(system):
    """The ``router.*`` kernel counters of the stats meta channel."""
    return {name[len("router."):]: value
            for name, value in system.stats.meta.items()
            if name.startswith("router.")}


def _parked(router):
    return any(any(registry) for registry in
               (router._vc_wait, router._sid_wait, router._rvc_wait))


def test_snapshot_with_parked_slots_restores_identically(tmp_path):
    spec = _spec()
    straight = _payload_bytes(SweepResult.from_outcome(
        spec, "fp", execute_system_spec(spec)))

    system = spec.build()
    system.engine.run(150)
    while not any(_parked(r) and r._n_buffered for r in system.mesh.routers):
        assert not system.all_cores_finished(), "never saturated"
        system.engine.run(1)
    path = tmp_path / "parked.ckpt"
    snapshot_spec(spec, system, str(path), fingerprint="fp")
    assert _payload_bytes(resume_spec(str(path))) == straight


def test_kernel_counters_are_mode_invariant_and_stay_out_of_payloads():
    """The counters ride router state (and so checkpoints): both kernels
    must count the same scans and wake-ups.  They reach the stats meta
    channel and never a payload."""
    totals = {}
    for mode in (True, False):
        with forced_quiescence(mode):
            system = _spec().build()
            system.run_until_done(_spec().max_cycles)
        totals[mode] = _router_meta(system)
        assert totals[mode]["scans"] == sum(
            router.scans for router in system.mesh.routers)
        assert not any(name.startswith("router.")
                       for name in system.stats.snapshot())
    assert totals[True] == totals[False]
    assert set(totals[True]) == {"scans", "blocked_scans", "la_echoes",
                                 "wake_credit", "wake_sid", "wake_rvc",
                                 "wake_order", "wake_retry"}
    assert 0 < totals[True]["la_echoes"] \
        <= system.stats.counter("noc.la.lost_arbitration")


def test_blocked_scans_stay_near_eligible_scans():
    """Engagement guard: a parked slot is re-scanned only when an event
    it waits on fires, so blocked scans stay within a small multiple of
    the eligible ones (re-scanning every blocked VC every cycle reads
    about 5x on saturated broadcast)."""
    system = _spec().build()
    system.run_until_done(_spec().max_cycles)
    counters = _router_meta(system)
    eligible = counters["scans"] - counters["blocked_scans"]
    assert eligible > 1000
    assert counters["blocked_scans"] <= 2 * eligible
