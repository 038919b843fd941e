"""Tests for the Figure-7 baselines: INSO and TokenB."""

import pytest

from repro.coherence.mosi import State
from repro.core.config import ChipConfig
from repro.cpu.trace import Trace, TraceOp
from repro.ordering_baselines.systems import InsoSystem, TokenBSystem
from repro.workloads.synthetic import uniform_random_trace

ADDR = 0x4000_0000


def pad(traces, n):
    return list(traces) + [Trace([])] * (n - len(traces))


def run_done(system, max_cycles=80_000):
    system.run_until_done(max_cycles)
    assert system.all_cores_finished()
    return system.engine.cycle


class TestInso:
    def test_basic_coherence(self):
        config = ChipConfig.variant(3, 3)
        system = InsoSystem(config, traces=pad([
            Trace([TraceOp("W", ADDR, 1)]),
            Trace([TraceOp("R", ADDR, 600)]),
        ], 9), expiration_window=20)
        run_done(system)
        assert system.l2s[0].state_of(ADDR) is State.O
        assert system.l2s[1].state_of(ADDR) is State.S

    def test_global_order_agreement(self):
        config = ChipConfig.variant(3, 3)
        traces = [uniform_random_trace(c, 8, 8, write_fraction=0.5,
                                       think=4, seed=5) for c in range(9)]
        system = InsoSystem(config, traces=traces, expiration_window=20)
        logs = {n: [] for n in range(9)}
        for node, nic in enumerate(system.nics):
            nic.add_request_listener(
                (lambda n: (lambda p, sid, c, a:
                            logs[n].append((sid, p.req_id))))(node))
        run_done(system, 150_000)
        for node in range(1, 9):
            assert logs[node] == logs[0]

    def test_expiry_messages_generated(self):
        config = ChipConfig.variant(3, 3)
        system = InsoSystem(config,
                            traces=pad([Trace([TraceOp("R", ADDR, 1)])], 9),
                            expiration_window=20)
        run_done(system)
        assert system.stats.counter("inso.expiry_messages") > 0
        assert system.stats.counter("inso.slots_expired") > 0

    def test_larger_window_is_slower(self):
        config = ChipConfig.variant(3, 3)
        runtimes = {}
        for window in (20, 80):
            traces = [uniform_random_trace(c, 6, 8, write_fraction=0.4,
                                           think=4, seed=2)
                      for c in range(9)]
            system = InsoSystem(config, traces=traces,
                                expiration_window=window)
            runtimes[window] = run_done(system, 300_000)
        assert runtimes[80] > runtimes[20]

    def test_expiry_overhead_metric(self):
        config = ChipConfig.variant(3, 3)
        system = InsoSystem(config,
                            traces=pad([Trace([TraceOp("R", ADDR, 1)])], 9),
                            expiration_window=20)
        run_done(system)
        assert system.expiry_overhead() > 0


class TestTokenB:
    def test_basic_coherence(self):
        config = ChipConfig.variant(3, 3)
        system = TokenBSystem(config, traces=pad([
            Trace([TraceOp("W", ADDR, 1)]),
            Trace([TraceOp("R", ADDR, 600)]),
        ], 9))
        run_done(system)
        assert system.l2s[1].state_of(ADDR) is State.S

    def test_conflicting_writers_eventually_converge(self):
        # Unordered broadcasts race; retries (and the memory fallback
        # standing in for TokenB's persistent requests) must still let
        # every writer finish, and never leave two owners.  A follow-up
        # reader must still be able to obtain the line.
        config = ChipConfig.variant(3, 3)
        writers = [Trace([TraceOp("W", ADDR, 1)]) for _ in range(4)]
        reader = [Trace([TraceOp("R", ADDR, 5000)])]
        system = TokenBSystem(config, traces=pad(writers + reader, 9),
                              retry_timeout=300)
        run_done(system, 300_000)
        owners = [l2.node for l2 in system.l2s
                  if l2.state_of(ADDR).is_owner]
        assert len(owners) <= 1
        assert system.l2s[4].state_of(ADDR) is not State.I

    def test_random_soak(self):
        config = ChipConfig.variant(3, 3)
        traces = [uniform_random_trace(c, 10, 10, write_fraction=0.4,
                                       think=5, seed=21) for c in range(9)]
        system = TokenBSystem(config, traces=traces, retry_timeout=300)
        run_done(system, 300_000)

    def test_no_ordering_wait(self):
        # TokenB delivers requests on arrival: ordering wait ~ 0.
        config = ChipConfig.variant(3, 3)
        system = TokenBSystem(config, traces=pad([
            Trace([TraceOp("R", ADDR, 1)]),
        ], 9))
        run_done(system)
        assert system.stats.mean("nic.ordering_wait") == 0.0
