"""End-to-end tests of the SCORPIO system: coherence scenarios, the
global-order agreement property, and invariant checks."""

from dataclasses import replace

import pytest

from repro.coherence.mosi import State
from repro.core.config import ChipConfig
from repro.cpu.trace import Trace, TraceOp
from repro.systems.scorpio import ScorpioSystem
from repro.workloads.synthetic import uniform_random_trace

LINE = 32
ADDR = 0x4000_0000


def small_system(traces=None, width=3, height=3, **parts):
    """A *width* x *height* chip; *parts* replace its sub-configs."""
    config = replace(ChipConfig.variant(width, height), **parts)
    if traces is not None:
        traces = list(traces) + [Trace([])] * (width * height - len(traces))
    return ScorpioSystem(config, traces=traces)


def run_done(system, max_cycles=20_000):
    system.run_until_done(max_cycles)
    assert system.all_cores_finished(), "cores did not finish"
    return system.engine.cycle


class TestReadSharing:
    def test_two_readers_end_shared(self):
        system = small_system([
            Trace([TraceOp("R", ADDR, 1)]),
            Trace([TraceOp("R", ADDR, 1)]),
        ])
        run_done(system)
        assert system.l2s[0].state_of(ADDR) is State.S
        assert system.l2s[1].state_of(ADDR) is State.S

    def test_read_after_write_gets_dirty_data_on_chip(self):
        # Writer dirties the line; a later reader must be served by the
        # writer's cache (M -> O), not memory.
        system = small_system([
            Trace([TraceOp("W", ADDR, 1)]),
            Trace([TraceOp("R", ADDR, 400)]),
        ])
        run_done(system)
        assert system.l2s[0].state_of(ADDR) is State.O
        assert system.l2s[1].state_of(ADDR) is State.S
        assert system.stats.counter("l2.data_forwards") >= 1


class TestWriteInvalidation:
    def test_write_invalidates_sharers(self):
        system = small_system([
            Trace([TraceOp("R", ADDR, 1)]),
            Trace([TraceOp("R", ADDR, 1), TraceOp("W", ADDR, 300)]),
        ])
        run_done(system)
        assert system.l2s[0].state_of(ADDR) is State.I
        assert system.l2s[1].state_of(ADDR) is State.M

    def test_migratory_ownership(self):
        # W0 -> W1 -> W2: ownership must migrate, single owner at end.
        system = small_system([
            Trace([TraceOp("W", ADDR, 1)]),
            Trace([TraceOp("W", ADDR, 500)]),
            Trace([TraceOp("W", ADDR, 1000)]),
        ])
        run_done(system)
        owners = [l2.node for l2 in system.l2s
                  if l2.state_of(ADDR).is_owner]
        assert owners == [2]
        assert system.l2s[0].state_of(ADDR) is State.I
        assert system.l2s[1].state_of(ADDR) is State.I

    def test_concurrent_writers_serialize(self):
        # All nine cores write the same line at once: exactly one owner
        # at the end, everyone finished.
        system = small_system(
            [Trace([TraceOp("W", ADDR, 1)]) for _ in range(9)])
        run_done(system)
        owners = [l2.node for l2 in system.l2s
                  if l2.state_of(ADDR).is_owner]
        assert len(owners) == 1
        assert system.single_owner_invariant()


class TestGlobalOrder:
    def _delivered_orders(self, system):
        """Install recorders on every NIC; returns the per-node logs."""
        logs = {node: [] for node in range(system.n_nodes)}
        for node, nic in enumerate(system.nics):
            nic.add_request_listener(
                (lambda n: (lambda payload, sid, cycle, arrival:
                            logs[n].append((sid, payload.req_id))))(node))
        return logs

    def test_all_nodes_see_same_order(self):
        config = ChipConfig.variant(3, 3)
        traces = [uniform_random_trace(c, 12, 16, write_fraction=0.5,
                                       think=4, seed=7) for c in range(9)]
        system = ScorpioSystem(config, traces=traces)
        logs = self._delivered_orders(system)
        system.run_until_done(60_000)
        assert system.all_cores_finished()
        reference = logs[0]
        assert len(reference) > 0
        for node in range(1, 9):
            assert logs[node] == reference, f"node {node} order diverged"

    def test_order_consistent_under_heavy_conflict(self):
        config = ChipConfig.variant(3, 3)
        # Everyone hammers four lines.
        traces = [uniform_random_trace(c, 15, 4, write_fraction=0.6,
                                       think=2, seed=13) for c in range(9)]
        system = ScorpioSystem(config, traces=traces)
        logs = self._delivered_orders(system)
        system.run_until_done(120_000)
        assert system.all_cores_finished()
        for node in range(1, 9):
            assert logs[node] == logs[0]
        assert system.single_owner_invariant()

    def test_per_source_order_preserved(self):
        config = ChipConfig.variant(3, 3)
        traces = [uniform_random_trace(c, 10, 8, write_fraction=0.5,
                                       think=3, seed=3) for c in range(9)]
        system = ScorpioSystem(config, traces=traces)
        logs = self._delivered_orders(system)
        system.run_until_done(60_000)
        # Within one source, req_ids must appear in issue order.
        by_source = {}
        for sid, req_id in logs[0]:
            by_source.setdefault(sid, []).append(req_id)
        for sid, ids in by_source.items():
            assert ids == sorted(ids), f"source {sid} reordered"


class TestWritebacks:
    def test_capacity_eviction_writes_back(self):
        # Tiny L2 (4 lines) forces dirty evictions.
        from repro.coherence.l2_controller import CacheConfig
        cache = CacheConfig(l2_size=128, l2_ways=2,
                            use_region_tracker=False)
        ops = [TraceOp("W", ADDR + i * LINE, 20) for i in range(8)]
        system = small_system([Trace(ops)], cache=cache)
        run_done(system, 60_000)
        assert system.stats.counter("l2.writebacks.completed") >= 1
        assert system.stats.counter("mc.writebacks_received") \
            == system.stats.counter("l2.writebacks.completed")

    def test_read_after_eviction_served_by_memory(self):
        from repro.coherence.l2_controller import CacheConfig
        cache = CacheConfig(l2_size=128, l2_ways=2,
                            use_region_tracker=False)
        ops = [TraceOp("W", ADDR + i * LINE, 20) for i in range(8)]
        ops.append(TraceOp("R", ADDR, 200))   # long evicted by now
        system = small_system([Trace(ops)], cache=cache)
        run_done(system, 60_000)
        assert system.stats.counter("mc.dram_reads") >= 2


class TestQuiescence:
    def test_system_quiesces_after_work(self, credits_in_flight):
        system = small_system([
            Trace([TraceOp("W", ADDR, 1), TraceOp("R", ADDR + LINE, 10)]),
            Trace([TraceOp("R", ADDR, 5)]),
        ])
        run_done(system)
        system.run(500)   # drain
        assert system.quiesced()
        assert credits_in_flight(system) == 0

    def test_empty_traces_finish_immediately(self):
        system = small_system([Trace([]) for _ in range(9)])
        cycles = system.run_until_done(1000)
        assert cycles < 10

    def test_max_cycles_is_an_absolute_cap(self):
        system = small_system([Trace([TraceOp("R", ADDR, 1),
                                      TraceOp("W", ADDR + LINE, 200)])])
        assert system.run_until_done(40) == 40
        assert system.run_until_done(40) == 40     # nothing below the cap
        assert system.run_until_done(60) == 60
        finished_at = run_done(system)
        assert finished_at > 200
        assert system.run_until_done(100_000) == finished_at


class TestConfigurationErrors:
    def test_wrong_trace_count_rejected(self):
        with pytest.raises(ValueError):
            ScorpioSystem(ChipConfig.variant(3, 3), traces=[Trace([])])


class TestAllCoresFinished:
    def test_cores_attached_after_construction_are_seen(self):
        system = small_system()
        assert system.all_cores_finished()          # no cores yet
        system.attach_cores([Trace([TraceOp("R", ADDR, 1)])],
                            lambda node: system.l2s[node])
        assert not system.all_cores_finished()
        run_done(system)
