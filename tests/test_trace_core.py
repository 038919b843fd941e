"""Trace-injector core tests: AHB outstanding cap, L1 interaction,
think-time pacing, completion accounting."""

from repro.cpu.core import CoreConfig, TraceCore
from repro.cpu.trace import Trace, TraceOp
from repro.sim.engine import Clocked, Engine


class FakeL2(Clocked):
    """Accepts requests and completes them after a fixed delay.

    Registered after the core, it never sleeps: at the end of every
    cycle it completes what is due by the next one."""

    def __init__(self, latency=20, accept=True):
        self.latency = latency
        self.accept = accept
        self.requests = []
        self._cb = None
        self._inv = None
        self._pending = []

    def set_completion_callback(self, fn):
        self._cb = fn

    def set_l1_invalidate(self, fn):
        self._inv = fn

    def core_request(self, op, addr, cycle, token=None):
        if not self.accept:
            return False
        self.requests.append((op, addr, cycle))
        self._pending.append((cycle + self.latency, token))
        return True

    def commit(self, cycle):
        cycle += 1
        for entry in [p for p in self._pending if p[0] <= cycle]:
            self._pending.remove(entry)
            self._cb(entry[1], cycle)


def run_core(trace, config=None, l2=None, cycles=2000):
    engine = Engine()
    l2 = l2 or FakeL2()
    core = TraceCore(0, l2, trace, 32, config or CoreConfig(l1_enabled=False))
    engine.register(core)
    engine.register(l2)
    engine.run(cycles, until=lambda: core.finished)
    return core, l2, engine


class TestIssue:
    def test_completes_trace(self):
        trace = Trace([TraceOp("R", 0x40, 1), TraceOp("W", 0x80, 5)])
        core, l2, _ = run_core(trace)
        assert core.finished
        assert core.completed_ops == 2
        assert [r[0] for r in l2.requests] == ["R", "W"]

    def test_outstanding_cap(self):
        trace = Trace([TraceOp("R", i * 32, 1) for i in range(6)])
        slow = FakeL2(latency=500)
        config = CoreConfig(max_outstanding=2, l1_enabled=False)
        engine = Engine()
        core = TraceCore(0, slow, trace, 32, config)
        engine.register(core)
        engine.register(slow)
        engine.run(100)
        assert len(slow.requests) == 2   # capped

    def test_think_time_paces_issue(self):
        trace = Trace([TraceOp("R", 0, 1), TraceOp("R", 32, 50)])
        core, l2, _ = run_core(trace)
        issue_gap = l2.requests[1][2] - l2.requests[0][2]
        assert issue_gap >= 50

    def test_l2_stall_retries(self):
        l2 = FakeL2()
        l2.accept = False
        trace = Trace([TraceOp("R", 0, 1)])
        engine = Engine()
        core = TraceCore(0, l2, trace, 32, CoreConfig(l1_enabled=False))
        engine.register(core)
        engine.register(l2)
        engine.run(50)
        assert not l2.requests
        l2.accept = True
        engine.run(50, until=lambda: core.finished)
        assert core.finished

    def test_progress_metric(self):
        trace = Trace([TraceOp("R", i * 32, 1) for i in range(4)])
        core, _l2, _ = run_core(trace)
        assert core.progress() == 1.0


class TestL1Interaction:
    def test_l1_hit_skips_l2(self):
        # Think time exceeds the L2 latency so the refill lands first.
        trace = Trace([TraceOp("R", 0x40, 1), TraceOp("R", 0x40, 50)])
        l2 = FakeL2()
        core, l2, _ = run_core(trace, CoreConfig(l1_enabled=True), l2)
        assert core.finished
        # Second read hits the refilled L1: only one L2 request.
        assert len(l2.requests) == 1
        assert core.completed_ops == 2

    def test_writes_always_reach_l2(self):
        trace = Trace([TraceOp("R", 0x40, 1), TraceOp("W", 0x40, 10),
                       TraceOp("W", 0x40, 10)])
        l2 = FakeL2()
        core, l2, _ = run_core(trace, CoreConfig(l1_enabled=True), l2)
        # Write-through: both writes reach the L2 despite the L1 copy.
        assert len(l2.requests) == 3

    def test_invalidation_hook_installed(self):
        l2 = FakeL2()
        core, l2, _ = run_core(Trace([TraceOp("R", 0x40, 1)]),
                               CoreConfig(l1_enabled=True), l2)
        assert l2._inv is not None
        assert core.l1.holds(0x40)
        l2._inv(0x40)
        assert not core.l1.holds(0x40)

    def test_finish_cycle_recorded(self):
        trace = Trace([TraceOp("R", 0, 1)])
        core, _l2, engine = run_core(trace)
        assert core.finish_cycle is not None
        assert core.finish_cycle <= engine.cycle
