"""End-to-end notification-network stress: the stop-bit protocol and
multi-bit windows exercised through the full system (not just the NIC
unit tests)."""

import json
from dataclasses import replace

from repro.core.config import ChipConfig
from repro.cpu.core import CoreConfig
from repro.experiments import SystemSpec, execute_system_spec
from repro.experiments.sweep import SweepResult
from repro.noc.config import NotificationConfig
from repro.sim.engine import forced_quiescence
from repro.systems.scorpio import ScorpioSystem
from repro.workloads.synthetic import uniform_random_trace


def run_with(notif, core=None, seed=107, n=9, ops=12):
    config = replace(ChipConfig.variant(3, 3), notification=notif,
                     core=core or CoreConfig())
    traces = [uniform_random_trace(c, ops, 10, write_fraction=0.5,
                                   think=2, seed=seed) for c in range(n)]
    system = ScorpioSystem(config, traces=traces)
    logs = {node: [] for node in range(n)}
    for node, nic in enumerate(system.nics):
        nic.add_request_listener(
            (lambda k: (lambda p, sid, c, a:
                        logs[k].append((sid, p.req_id))))(node))
    system.run_until_done(400_000)
    assert system.all_cores_finished()
    for node in range(1, n):
        assert logs[node] == logs[0], "global order diverged"
    return system


class TestStopBitUnderPressure:
    def test_depth1_tracker_queue_engages_stop_bit(self):
        # A 1-deep tracker queue fills under bursty load; the stop bit
        # must throttle every node's announcements — and the system
        # still completes with all nodes agreeing on one order.
        notif = NotificationConfig(window=13, max_pending=4,
                                   tracker_queue_depth=1)
        system = run_with(notif)
        assert system.stats.counter("nic.windows_stopped") > 0

    def test_deep_queue_never_stops(self):
        notif = NotificationConfig(window=13, max_pending=4,
                                   tracker_queue_depth=64)
        system = run_with(notif)
        assert system.stats.counter("nic.windows_stopped") == 0

    def test_stopping_costs_time_not_correctness(self):
        shallow = run_with(NotificationConfig(window=13,
                                              tracker_queue_depth=1))
        deep = run_with(NotificationConfig(window=13,
                                           tracker_queue_depth=64))
        assert shallow.total_completed_ops() == deep.total_completed_ops()
        assert shallow.engine.cycle >= deep.engine.cycle


class TestMultiBitWindows:
    def test_bursty_cores_complete_and_agree(self):
        # 2 bits/core announce up to 3 requests per window; cores with 4
        # outstanding messages generate real bursts.
        notif = NotificationConfig(bits_per_core=2, window=13,
                                   max_pending=8)
        core = CoreConfig(max_outstanding=4)
        run_with(notif, core=core)

    def test_more_bits_reduce_ordering_delay_for_bursts(self):
        core = CoreConfig(max_outstanding=4)
        waits = {}
        for bits in (1, 2):
            notif = NotificationConfig(bits_per_core=bits, window=13,
                                       max_pending=8)
            system = run_with(notif, core=core, ops=16)
            waits[bits] = system.stats.mean("nic.order_latency")
        # Fig. 8d's mechanism: a burst of k requests needs ceil(k/cap)
        # windows, so more bits per core cannot make ordering slower.
        assert waits[2] <= waits[1] * 1.05

    def test_window_length_bounds_order_latency(self):
        # Every request is ordered within ~2 windows of injection at
        # light load (announce at next window start + deliver by end).
        notif = NotificationConfig(window=13)
        system = run_with(notif, ops=4, seed=109)
        worst = system.stats.histograms["nic.order_latency"].maximum
        assert worst <= 6 * notif.window


class TestStopWindowsAcrossKernels:
    def test_stopped_windows_are_kernel_invariant(self):
        # The window after a stop is delivered to every sink even when
        # it is empty (it re-enables the stopped NICs), so a run full of
        # stop windows pays out the same bytes under both kernels.
        config = replace(ChipConfig.variant(3, 3),
                         notification=NotificationConfig(
                             window=13, tracker_queue_depth=1))
        spec = SystemSpec("scorpio", config,
                          workload={"kind": "benchmark", "name": "fft",
                                    "ops_per_core": 8,
                                    "workload_scale": 0.02,
                                    "think_scale": 1.0, "seed": 0})
        payloads = {}
        for quiescence in (True, False):
            with forced_quiescence(quiescence):
                outcome = execute_system_spec(spec)
            assert outcome.stats["nic.windows_stopped"] > 0
            result = SweepResult.from_outcome(spec, "fingerprint-elided",
                                              outcome)
            payloads[quiescence] = json.dumps(result.payload(),
                                              sort_keys=True)
        assert payloads[True] == payloads[False]
