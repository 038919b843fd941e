"""Region-tracker "evict" policy tests: RegionScout-style region
eviction with L2 force-invalidation (the hardware-faithful alternative
to the default saturate policy)."""

from dataclasses import replace

import pytest

from repro.cache.region_tracker import RegionTracker
from repro.coherence.l2_controller import CacheConfig
from repro.coherence.mosi import State
from repro.core.config import ChipConfig
from repro.cpu.trace import Trace, TraceOp
from repro.systems.scorpio import ScorpioSystem
from repro.workloads.synthetic import uniform_random_trace

LINE = 32
REGION = 4096
ADDR = 0x4000_0000


class TestTrackerEvictPolicy:
    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="policy"):
            RegionTracker(policy="flush-all")

    def test_evict_returns_lru_victim(self):
        tracker = RegionTracker(entries=2, policy="evict")
        assert tracker.line_inserted(0 * REGION) is None
        assert tracker.line_inserted(1 * REGION) is None
        victim = tracker.line_inserted(2 * REGION)
        assert victim == 0
        assert tracker.region_evictions == 1
        assert not tracker.saturated

    def test_reinsertion_refreshes_lru(self):
        tracker = RegionTracker(entries=2, policy="evict")
        tracker.line_inserted(0 * REGION)
        tracker.line_inserted(1 * REGION)
        tracker.line_inserted(0 * REGION + LINE)   # touch region 0
        victim = tracker.line_inserted(2 * REGION)
        assert victim == 1                          # region 1 is now LRU

    def test_saturate_policy_unchanged(self):
        tracker = RegionTracker(entries=2, policy="saturate")
        tracker.line_inserted(0 * REGION)
        tracker.line_inserted(1 * REGION)
        assert tracker.line_inserted(2 * REGION) is None
        assert tracker.saturated

    def test_may_cache_false_for_evicted_region(self):
        tracker = RegionTracker(entries=1, policy="evict")
        tracker.line_inserted(0 * REGION)
        tracker.line_inserted(1 * REGION)
        assert not tracker.may_cache(0 * REGION)
        assert tracker.may_cache(1 * REGION)


def evict_system(traces, entries=2):
    cache = CacheConfig(region_policy="evict", region_entries=entries)
    n = 9
    traces = list(traces) + [Trace([])] * (n - len(traces))
    return ScorpioSystem(replace(ChipConfig.variant(3, 3), cache=cache),
                         traces=traces)


class TestL2ForceInvalidation:
    def test_region_flush_invalidates_stable_lines(self):
        # Touch 3 regions with a 2-entry tracker: the first region's
        # lines must be flushed from the array.
        ops = [TraceOp("R", ADDR + region * REGION, 1 + region * 400)
               for region in range(3)]
        system = evict_system([Trace(ops)])
        system.run_until_done(100_000)
        assert system.all_cores_finished()
        assert system.stats.counter("l2.region_flushes") >= 1
        assert system.l2s[0].state_of(ADDR) is State.I
        assert system.l2s[0].state_of(ADDR + 2 * REGION) is not State.I

    def test_dirty_lines_write_back_on_flush(self):
        ops = [TraceOp("W", ADDR, 1),
               TraceOp("R", ADDR + REGION, 500),
               TraceOp("R", ADDR + 2 * REGION, 1000)]
        system = evict_system([Trace(ops)])
        system.run_until_done(150_000)
        assert system.all_cores_finished()
        system.engine.run(3000)   # drain the in-flight PUT + writeback data
        assert system.stats.counter("l2.region_flushes") >= 1
        # The dirty line of the evicted region went back to memory.
        assert system.stats.counter("mc.writebacks_received") >= 1
        assert system.l2s[0].state_of(ADDR) is State.I

    def test_filter_stays_conservative_after_flush(self):
        # After flushing region 0, its snoops may be filtered — but the
        # data must still be obtainable (memory serves it).
        writer = Trace([TraceOp("W", ADDR, 1),
                        TraceOp("R", ADDR + REGION, 500),
                        TraceOp("R", ADDR + 2 * REGION, 900)])
        reader = Trace([TraceOp("R", ADDR, 4000)])
        system = evict_system([writer, reader])
        system.run_until_done(200_000)
        assert system.all_cores_finished()
        assert system.l2s[1].state_of(ADDR) is not State.I

    def test_random_soak_with_tiny_region_table(self):
        traces = [uniform_random_trace(c, 10, 30, write_fraction=0.4,
                                       think=4, seed=113)
                  for c in range(9)]
        # Spread the working set across many regions so evictions fire.
        spread = []
        for trace in traces:
            spread.append(Trace([
                TraceOp(op.op, op.addr + (i % 5) * REGION, op.think)
                for i, op in enumerate(trace)]))
        system = evict_system(spread, entries=2)
        system.run_until_done(400_000)
        assert system.all_cores_finished()
        owners = {}
        for l2 in system.l2s:
            for set_index, line in l2.array.lines():
                if line.state.is_owner:
                    addr = l2.array.addr_of(set_index, line)
                    assert addr not in owners, "two owners after flushes"
                    owners[addr] = l2.node
