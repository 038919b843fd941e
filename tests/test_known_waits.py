"""A wait whose end is already known keeps nobody stepping.

Three components wait for something whose cycle is known in advance: a
router for a credit coming home (visible the cycle after it is
returned), a trace core held at the AHB cap of two outstanding misses,
and a directory slice whose outbox head waits out the directory access.
Each sleeps through the wait (its sleep cell, ``_q_cell[0]``, holds the
cycle it must run next) and reads what per-cycle stepping reads.
"""

import pytest

from repro.coherence.directory import DirectoryConfig, DirectoryController
from repro.coherence.messages import CoherenceRequest, MemRead, ReqKind
from repro.cpu.core import CoreConfig, TraceCore
from repro.cpu.trace import Trace, TraceOp
from repro.noc.config import NocConfig
from repro.noc.packet import Packet, VNet
from repro.noc.router import PORTS, Router
from repro.noc.routing import EAST
from repro.sim.engine import WAKE_NEVER, Clocked, Engine
from repro.sim.stats import StatsRegistry
from repro.systems.base import BaseSystem


class Sink:
    """A far end that takes whatever a router hands it."""

    def deliver_hop(self, cycle, packet, inport, vc_index, echo=False):
        pass

    def deliver_packet(self, packet, inport, vnet, vc_index, arrive_cycle):
        pass

    def queue_credit_release(self, outport, vnet, vc, flits, cycle):
        pass


class CountingRouter(Router):
    def __init__(self, *args):
        super().__init__(*args)
        self.steps = []

    def step(self, cycle):
        self.steps.append(cycle)
        super().step(cycle)


class CreditAt(Clocked):
    """Returns one GO-REQ credit of *router*'s EAST VC 0 at *cycle*, as
    the router downstream does when the packet leaves its input VC."""

    def __init__(self, router, cycle):
        self.router, self.cycle = router, cycle

    def step(self, cycle):
        if cycle == self.cycle:
            self.router.queue_credit_release(EAST, VNet.GO_REQ, 0, 1,
                                             cycle + 1)
            self.idle_until(None)


def test_a_router_sleeps_through_a_credit_return():
    config = NocConfig(width=3, height=3)
    engine = Engine(quiescence=True)
    router = engine.register(CountingRouter(4, config))
    for port in PORTS:
        router.connect(port, Sink(), 4)
    engine.register(CreditAt(router, 5))
    packet = Packet(vnet=VNet.GO_REQ, src=0, dst=5, sid=0, size_flits=1)
    out = router.out[EAST]
    out.take(packet, 0)
    for vc in range(1, config.goreq_vcs):
        out.take(Packet(vnet=VNet.GO_REQ, src=vc, dst=5, sid=vc,
                        size_flits=1), vc)
    assert out.select(packet) is None
    engine.run(6)                     # cycles 0..5: the credit at 5
    # No slot is occupied, so nothing waits for the credit: the router
    # stepped once, at cycle 0, and sleeps on.
    assert router.steps == [0]
    assert router._q_cell[0] == WAKE_NEVER
    assert engine.cycle == 6 and out.select(packet) == 0


class StuckL2:
    """Takes every request and never completes one."""

    def set_completion_callback(self, fn):
        pass

    def set_l1_invalidate(self, fn):
        pass

    def core_request(self, op, addr, cycle, token=0):
        return True


class CoreBench(BaseSystem):
    """One trace core on a stuck L2, run through the system run loop."""

    def __init__(self, quiescence):
        self.stats = StatsRegistry()
        self.engine = Engine(quiescence=quiescence)
        self.meshes = []
        ops = [TraceOp("R", 64 * n, think=1) for n in range(3)]
        core = TraceCore(0, StuckL2(), Trace(ops), 32,
                         CoreConfig(l1_enabled=False), self.stats)
        self.cores = {0: self.engine.register(core)}


# Op 0 issues at cycle 1 (its think time), op 1 at 2: the cap holds from 3.
FIRST_STALLED = 3


@pytest.mark.parametrize("quiescence", [True, False])
@pytest.mark.parametrize("slices", [(500,), (4, 77, 500), (3, 500)])
def test_a_core_at_the_cap_sleeps_and_counts_every_cycle(quiescence,
                                                         slices):
    bench = CoreBench(quiescence)
    core = bench.cores[0]
    for cap in slices:
        assert bench.run_until_done(cap) == cap
        assert bench.stats.counter("core.stalls.outstanding") \
            == cap - FIRST_STALLED
    if quiescence:
        assert core._q_cell[0] == WAKE_NEVER
        assert bench.engine.ticks_executed < 10 * len(slices)


class QuietNic:
    """Sends whatever the directory hands it, recording the cycle."""

    def __init__(self, engine):
        self.engine = engine
        self.sent = []

    def add_request_listener(self, fn):
        self.deliver = fn

    def can_send_request(self):
        return True

    def send_request(self, payload, dst=None):
        self.sent.append((self.engine.cycle, payload, dst))


def test_a_directory_slice_sleeps_until_its_forward_is_due():
    engine = Engine(quiescence=True)
    nic = QuietNic(engine)
    config = DirectoryConfig(scheme="LPD", n_nodes=4,
                             total_cache_bytes=4096)
    directory = engine.register(DirectoryController(
        0, nic, config, memory_map=lambda addr: 3, line_size=32))
    request = CoherenceRequest(kind=ReqKind.GETS, addr=0x40, requester=2)
    request.home_node = 0
    engine.run(2)
    nic.deliver(request, 2, engine.cycle, engine.cycle)
    engine.run(1)                     # the access: a directory-cache miss
    [(release, message, dst)] = directory._outbox
    assert isinstance(message, MemRead) and dst == 3
    assert release == 2 + config.access_latency + config.miss_penalty
    assert directory._q_cell[0] == release
    engine.run(release - engine.cycle)
    assert nic.sent == [] and directory._q_cell[0] == release
    engine.run(1)
    assert nic.sent == [(release, message, 3)]
    assert directory._q_cell[0] == WAKE_NEVER
