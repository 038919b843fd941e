"""Tests for the Timestamp Snooping (TS) baseline of Sec. 2."""

import pytest

from repro.coherence.mosi import State
from repro.core.config import ChipConfig
from repro.cpu.trace import Trace, TraceOp
from repro.noc.config import NocConfig, NotificationConfig
from repro.ordering_baselines.systems import TimestampSystem
from repro.ordering_baselines.timestamp import TimestampNetworkInterface
from repro.workloads.synthetic import uniform_random_trace

ADDR = 0x4000_0000


def pad(traces, n):
    return list(traces) + [Trace([])] * (n - len(traces))


def run_done(system, max_cycles=120_000):
    system.run_until_done(max_cycles)
    assert system.all_cores_finished()
    return system.engine.cycle


class TestTimestampOrdering:
    def test_basic_coherence(self):
        config = ChipConfig.variant(3, 3)
        system = TimestampSystem(config, traces=pad([
            Trace([TraceOp("W", ADDR, 1)]),
            Trace([TraceOp("R", ADDR, 800)]),
        ], 9))
        run_done(system)
        assert system.l2s[0].state_of(ADDR) is State.O
        assert system.l2s[1].state_of(ADDR) is State.S

    def test_global_order_agreement(self):
        # Every node must process the requests in the same (OT, SID)
        # order even though arrivals differ — TS's defining property.
        config = ChipConfig.variant(3, 3)
        traces = [uniform_random_trace(c, 8, 8, write_fraction=0.5,
                                       think=4, seed=7) for c in range(9)]
        system = TimestampSystem(config, traces=traces)
        logs = {n: [] for n in range(9)}
        for node, nic in enumerate(system.nics):
            nic.add_request_listener(
                (lambda n: (lambda p, sid, c, a:
                            logs[n].append((sid, p.req_id))))(node))
        run_done(system, 200_000)
        for node in range(1, 9):
            assert logs[node] == logs[0]

    def test_no_late_arrivals_with_default_slack(self):
        config = ChipConfig.variant(3, 3)
        traces = [uniform_random_trace(c, 8, 8, write_fraction=0.4,
                                       think=6, seed=3) for c in range(9)]
        system = TimestampSystem(config, traces=traces)
        run_done(system, 200_000)
        assert system.late_arrivals() == 0

    def test_ordering_wait_tracks_slack(self):
        # A lone request still waits ~slack before GT catches up: the
        # latency cost TS pays that SCORPIO's notification window avoids.
        config = ChipConfig.variant(3, 3)
        system = TimestampSystem(config, traces=pad([
            Trace([TraceOp("R", ADDR, 1)]),
        ], 9), slack=80)
        run_done(system)
        assert system.stats.mean("nic.ordering_wait") > 20

    def test_larger_slack_is_slower(self):
        config = ChipConfig.variant(3, 3)
        runtimes = {}
        for slack in (40, 160):
            traces = [uniform_random_trace(c, 6, 8, write_fraction=0.4,
                                           think=4, seed=2)
                      for c in range(9)]
            system = TimestampSystem(config, traces=traces, slack=slack)
            runtimes[slack] = run_done(system, 300_000)
        assert runtimes[160] > runtimes[40]

    def test_rejects_bad_parameters(self):
        noc = NocConfig(width=3, height=3)
        notif = NotificationConfig(window=13)
        with pytest.raises(ValueError):
            TimestampNetworkInterface(0, noc, notif, slack=0)
        with pytest.raises(ValueError):
            TimestampNetworkInterface(0, noc, notif, slack=-4)

    def test_unicast_request_rejected(self):
        config = ChipConfig.variant(3, 3)
        system = TimestampSystem(config, traces=None)
        with pytest.raises(ValueError):
            system.nics[0].send_request(object(), dst=3)


class TestReorderBufferCost:
    """The Sec. 2 critique: buffers scale with cores x outstanding."""

    def test_reorder_peak_counted(self):
        config = ChipConfig.variant(3, 3)
        traces = [uniform_random_trace(c, 8, 8, write_fraction=0.4,
                                       think=2, seed=11) for c in range(9)]
        system = TimestampSystem(config, traces=traces)
        run_done(system, 200_000)
        assert system.reorder_buffer_peak() > 1

    def test_peak_grows_with_concurrency(self):
        # More simultaneously-injecting cores -> deeper reorder buffers.
        config = ChipConfig.variant(4, 4)
        peaks = {}
        for active in (4, 16):
            traces = pad([uniform_random_trace(c, 10, 12,
                                               write_fraction=0.4,
                                               think=2, seed=13)
                          for c in range(active)], 16)
            system = TimestampSystem(config, traces=traces)
            run_done(system, 400_000)
            peaks[active] = system.reorder_buffer_peak()
        assert peaks[16] > peaks[4]

    def test_peak_bounded_by_in_flight_window(self):
        # With one request in flight at a time, the buffer stays tiny.
        config = ChipConfig.variant(3, 3)
        system = TimestampSystem(config, traces=pad([
            Trace([TraceOp("R", ADDR, 1),
                   TraceOp("R", ADDR + 64, 500)]),
        ], 9))
        run_done(system)
        assert system.reorder_buffer_peak() <= 2
