"""Behavioural details of the Sec.-2 baseline models: backpressure,
stats surfaces, and parameter sensitivity not covered by the soaks."""

import pytest

from repro.core.config import ChipConfig
from repro.cpu.trace import Trace, TraceOp
from repro.ordering_baselines.systems import (InsoSystem, TimestampSystem,
                                              UncorqSystem)

ADDR = 0x4000_0000
LINE = 32


def pad(traces, n=9):
    return list(traces) + [Trace([])] * (n - len(traces))


class TestTimestampBehaviour:
    def test_accept_gate_backpressure_counted(self):
        config = ChipConfig.variant(3, 3)
        system = TimestampSystem(config, traces=pad([
            Trace([TraceOp("R", ADDR, 1)]),
        ]))
        gate = {"open": False}
        system.nics[4].accept_gate = lambda: gate["open"]
        system.run_until_done(600)
        stalls = system.stats.counter("nic.backpressure_stalls")
        assert stalls > 0
        gate["open"] = True
        system.run_until_done(60_000)
        assert system.all_cores_finished()

    def test_requests_wait_full_slack_when_alone(self):
        # One request, no other traffic: its delivery wait is close to
        # slack minus the network transit.
        config = ChipConfig.variant(3, 3)
        slack = 100
        system = TimestampSystem(config, traces=pad([
            Trace([TraceOp("R", ADDR, 1)]),
        ]), slack=slack)
        system.run_until_done(60_000)
        wait = system.stats.mean("nic.ordering_wait")
        assert slack * 0.5 < wait < slack

    def test_default_slack_scales_with_mesh(self):
        small = TimestampSystem(ChipConfig.variant(3, 3), traces=None)
        large = TimestampSystem(ChipConfig.variant(6, 6), traces=None)
        assert large.slack > small.slack

    def test_reorder_peak_zero_without_traffic(self):
        system = TimestampSystem(ChipConfig.variant(3, 3), traces=pad([]))
        system.engine.run(200)
        assert system.reorder_buffer_peak() == 0


class TestUncorqBehaviour:
    def test_slower_ring_delays_writes(self):
        runtimes = {}
        for hop in (1, 6):
            system = UncorqSystem(ChipConfig.variant(4, 4), traces=pad([
                Trace([TraceOp("W", ADDR, 1)]),
            ], 16),
                ring_hop_latency=hop)
            system.run_until_done(120_000)
            assert system.all_cores_finished()
            runtimes[hop] = system.engine.cycle
        assert runtimes[6] > runtimes[1]

    def test_write_waits_counter_under_slow_ring(self):
        system = UncorqSystem(ChipConfig.variant(4, 4), traces=pad([
            Trace([TraceOp("W", ADDR, 1)]),
        ], 16), ring_hop_latency=8)
        system.run_until_done(200_000)
        assert system.stats.counter("uncorq.write_waits") >= 1
        assert system.stats.mean("uncorq.ring_latency") \
            == system.ring_traversal_latency()

    def test_multiple_writers_launch_one_token_each(self):
        writers = [Trace([TraceOp("W", ADDR + i * 0x10000, 1)])
                   for i in range(4)]
        system = UncorqSystem(ChipConfig.variant(3, 3), traces=pad(writers))
        system.run_until_done(120_000)
        assert system.stats.counter("uncorq.tokens_launched") == 4


class TestInsoBehaviour:
    def test_known_used_slots_not_skipped(self):
        # A used slot whose request is still in flight must block, not
        # be expired past — otherwise nodes could diverge.
        config = ChipConfig.variant(3, 3)
        system = InsoSystem(config, traces=pad([
            Trace([TraceOp("R", ADDR, 1)]),
            Trace([TraceOp("R", ADDR + LINE, 3)]),
        ]), expiration_window=20)
        logs = {n: [] for n in range(9)}
        for node, nic in enumerate(system.nics):
            nic.add_request_listener(
                (lambda k: (lambda p, sid, c, a:
                            logs[k].append(sid)))(node))
        system.run_until_done(60_000)
        assert system.all_cores_finished()
        for node in range(1, 9):
            assert logs[node] == logs[0]

    def test_expiry_batch_controls_message_rate(self):
        def expiries(batch):
            system = InsoSystem(ChipConfig.variant(3, 3), traces=pad([
                Trace([TraceOp("R", ADDR, 1),
                       TraceOp("R", ADDR + LINE, 900)]),
            ]), expiration_window=20)
            for nic in system.nics:
                nic.expiry_batch = batch
            system.run_until_done(60_000)
            return system.stats.counter("inso.slots_expired")

        # Bigger batches expire more slots per message.
        assert expiries(4) >= expiries(1)
