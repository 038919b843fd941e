"""Tests for the Uncorq baseline: logical ring + write waits (Sec. 2)."""

import pytest

from repro.coherence.mosi import State
from repro.core.config import ChipConfig
from repro.cpu.trace import Trace, TraceOp
from repro.noc.config import NocConfig
from repro.ordering_baselines.systems import UncorqSystem
from repro.ordering_baselines.uncorq import LogicalRing, snake_order
from repro.sim.stats import StatsRegistry
from repro.workloads.synthetic import uniform_random_trace

ADDR = 0x4000_0000


def pad(traces, n):
    return list(traces) + [Trace([])] * (n - len(traces))


def run_done(system, max_cycles=120_000):
    system.run_until_done(max_cycles)
    assert system.all_cores_finished()
    return system.engine.cycle


class TestSnakeOrder:
    def test_visits_every_node_once(self):
        order = snake_order(4, 3)
        assert sorted(order) == list(range(12))

    def test_consecutive_stops_are_mesh_neighbours(self):
        width, height = 5, 4
        order = snake_order(width, height)
        for here, there in zip(order, order[1:]):
            dx = abs(here % width - there % width)
            dy = abs(here // width - there // width)
            assert dx + dy == 1

    def test_row_direction_alternates(self):
        order = snake_order(3, 2)
        assert order == [0, 1, 2, 5, 4, 3]


class TestLogicalRing:
    def _ring(self, width=3, height=3, hop_latency=2):
        return LogicalRing(NocConfig(width=width, height=height),
                           StatsRegistry(), hop_latency=hop_latency)

    def test_traversal_latency_scales_with_node_count(self):
        lat9 = self._ring(3, 3).traversal_latency()
        lat36 = self._ring(6, 6).traversal_latency()
        lat64 = self._ring(8, 8).traversal_latency()
        assert lat9 < lat36 < lat64
        # Linear-ish: a 36-node ring is ~4x a 9-node ring.
        assert lat36 == pytest.approx(4 * lat9, rel=0.25)

    def test_token_returns_after_traversal_latency(self):
        ring = self._ring()
        done = {}
        ring.launch(req_id=1, origin=4, cycle=0,
                    on_complete=lambda rid, c: done.setdefault(rid, c))
        for cycle in range(ring.traversal_latency() + 2):
            ring.step(cycle)
        assert done[1] == ring.traversal_latency()

    def test_token_visits_all_nodes(self):
        ring = self._ring(hop_latency=1)
        seen = set()
        ring.launch(req_id=7, origin=0, cycle=0,
                    on_complete=lambda rid, c: None)
        cycle = 0
        while ring.in_flight():
            seen.update(ring.token_positions().values())
            ring.step(cycle)
            cycle += 1
        assert seen == set(range(9))

    def test_multiple_tokens_independent(self):
        ring = self._ring()
        done = {}
        ring.launch(1, 0, 0, lambda rid, c: done.setdefault(rid, c))
        ring.launch(2, 8, 5, lambda rid, c: done.setdefault(rid, c))
        for cycle in range(ring.traversal_latency() + 10):
            ring.step(cycle)
        assert done[1] == ring.traversal_latency()
        assert done[2] == 5 + ring.traversal_latency()

    def test_rejects_bad_hop_latency(self):
        with pytest.raises(ValueError):
            self._ring(hop_latency=0)


class TestUncorqSystem:
    def test_basic_coherence(self):
        config = ChipConfig.variant(3, 3)
        system = UncorqSystem(config, traces=pad([
            Trace([TraceOp("W", ADDR, 1)]),
            Trace([TraceOp("R", ADDR, 1200)]),
        ], 9))
        run_done(system)
        assert system.l2s[0].state_of(ADDR) is State.O
        assert system.l2s[1].state_of(ADDR) is State.S

    def test_write_waits_for_ring(self):
        # A lone write cannot complete before the full ring traversal.
        config = ChipConfig.variant(3, 3)
        system = UncorqSystem(config, traces=pad([
            Trace([TraceOp("W", ADDR, 1)]),
        ], 9))
        runtime = run_done(system)
        assert runtime >= system.ring_traversal_latency()
        assert system.stats.counter("uncorq.tokens_launched") == 1

    def test_read_does_not_wait_for_ring(self):
        # Reads never launch tokens (Sec. 2: "read requests do not wait").
        config = ChipConfig.variant(3, 3)
        system = UncorqSystem(config, traces=pad([
            Trace([TraceOp("R", ADDR, 1)]),
        ], 9))
        run_done(system)
        assert system.stats.counter("uncorq.tokens_launched") == 0

    def test_write_wait_scales_with_core_count(self):
        # The paper's critique: write waiting delay scales linearly with
        # core count, like a physical ring.  At small meshes the ring
        # hides under the DRAM access; by 8x8 it dominates the lone
        # write's completion time.
        runtimes = {}
        traversals = {}
        for width, height in ((3, 3), (6, 6), (8, 8)):
            config = ChipConfig.variant(width, height)
            system = UncorqSystem(config, traces=pad([
                Trace([TraceOp("W", ADDR, 1)]),
            ], width * height))
            runtimes[width * height] = run_done(system)
            traversals[width * height] = system.ring_traversal_latency()
        assert traversals[9] < traversals[36] < traversals[64]
        assert runtimes[64] >= traversals[64] > runtimes[9]
        assert runtimes[64] > runtimes[9]

    def test_random_soak(self):
        config = ChipConfig.variant(3, 3)
        traces = [uniform_random_trace(c, 10, 10, write_fraction=0.4,
                                       think=5, seed=23) for c in range(9)]
        system = UncorqSystem(config, traces=traces)
        run_done(system, 400_000)

    def test_unicast_request_rejected(self):
        config = ChipConfig.variant(3, 3)
        system = UncorqSystem(config, traces=None)
        with pytest.raises(ValueError):
            system.nics[0].send_request(object(), dst=3)
