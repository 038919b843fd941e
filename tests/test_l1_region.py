"""Tests for the write-through L1 and the region-tracker snoop filter."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.l1 import L1Cache
from repro.cache.region_tracker import RegionTracker


class TestL1:
    def test_miss_then_refill_then_hit(self):
        l1 = L1Cache(32)
        assert not l1.read(0x100)
        l1.refill(0x100)
        assert l1.read(0x100)

    def test_write_through_no_allocate(self):
        l1 = L1Cache(32)
        assert not l1.write(0x200)
        # no-write-allocate: still a miss afterwards
        assert not l1.read(0x200)

    def test_invalidation_port(self):
        l1 = L1Cache(32)
        l1.refill(0x300)
        assert l1.invalidate(0x300)
        assert not l1.read(0x300)
        assert not l1.invalidate(0x300)   # second time: not present

    def test_refill_evicts_lru(self):
        l1 = L1Cache(size_bytes=128, ways=2, line_size=32)  # 4 lines
        l1.refill(0x00)
        l1.refill(0x80)    # same set (2 sets: 0x00,0x80 -> set 0)
        l1.read(0x00)
        l1.refill(0x100)   # set 0 again: evicts 0x80
        assert l1.holds(0x00)
        assert not l1.holds(0x80)

    def test_refill_idempotent(self):
        l1 = L1Cache(32)
        l1.refill(0x40)
        l1.refill(0x40)
        assert l1.holds(0x40)


class TestRegionTracker:
    def test_empty_filters_everything(self):
        rt = RegionTracker()
        assert not rt.may_cache(0x1234)

    def test_inserted_region_conservative(self):
        rt = RegionTracker(region_bytes=4096)
        rt.line_inserted(0x1000)
        assert rt.may_cache(0x1020)     # same region
        assert rt.may_cache(0x1FFF)
        assert not rt.may_cache(0x2000)  # next region

    def test_counting_eviction(self):
        rt = RegionTracker()
        rt.line_inserted(0x1000)
        rt.line_inserted(0x1040)
        rt.line_evicted(0x1000)
        assert rt.may_cache(0x1040)
        rt.line_evicted(0x1040)
        assert not rt.may_cache(0x1000)

    def test_saturation_goes_conservative(self):
        rt = RegionTracker(region_bytes=64, entries=2)
        rt.line_inserted(0)
        rt.line_inserted(64)
        rt.line_inserted(128)   # overflow
        assert rt.saturated
        assert rt.may_cache(999999)   # conservative: never filter

    def test_saturation_clears_when_empty(self):
        rt = RegionTracker(region_bytes=64, entries=1)
        rt.line_inserted(0)
        rt.line_inserted(64)
        assert rt.saturated
        rt.line_evicted(0)
        assert not rt.saturated

    @settings(max_examples=30)
    @given(ops=st.lists(st.tuples(st.booleans(), st.integers(0, 1 << 16)),
                        max_size=80))
    def test_property_no_false_negatives(self, ops):
        """The filter may say yes wrongly, never no wrongly."""
        rt = RegionTracker(region_bytes=256, entries=4)
        live = {}
        for insert, addr in ops:
            line = addr & ~31
            if insert:
                rt.line_inserted(line)
                live[line] = live.get(line, 0) + 1
            elif live.get(line):
                rt.line_evicted(line)
                live[line] -= 1
        for line, count in live.items():
            if count > 0:
                assert rt.may_cache(line)
