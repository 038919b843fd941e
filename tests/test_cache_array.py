"""Unit + property tests for the set-associative cache array."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.array import CacheArray, is_pow2


class TestGeometry:
    def test_set_count(self):
        array = CacheArray(128 * 1024, 4, 32)
        assert array.n_sets == 1024

    def test_rejects_non_pow2_line(self):
        with pytest.raises(ValueError):
            CacheArray(1024, 4, 33)

    def test_rejects_uneven_size(self):
        with pytest.raises(ValueError):
            CacheArray(1000, 4, 32)

    def test_line_addr_masks_offset(self):
        array = CacheArray(1024, 2, 32)
        assert array.line_addr(0x1234) == 0x1220

    def test_tag_set_roundtrip(self):
        array = CacheArray(4096, 4, 32)
        for addr in (0, 32, 4096, 123456 & ~31):
            line = array.fill(addr, "S")
            found = array.lookup(addr)
            assert found is line
            array.evict(addr)


class TestLazySets:
    def test_a_set_is_allocated_by_its_first_fill(self):
        array = CacheArray(128 * 1024, 4, 32)
        assert array._sets == [None] * 1024
        assert array.lookup(0x40) is None and array.evict(0x40) is None
        assert array.victim(0x40) == (0, None)
        assert list(array.lines()) == [] and array._sets == [None] * 1024
        array.fill(0x40, "S", way=3)
        assert [s is not None for s in array._sets].count(True) == 1
        assert array._sets[array.set_index(0x40)] \
            == [None, None, None, array.lookup(0x40)]

    def test_lines_come_in_set_order(self):
        array = CacheArray(1024, 2, 32)
        for addr in (0x1e0, 0x20, 0x420, 0x0):
            array.fill(addr, "S")
        assert [(idx, line.tag) for idx, line in array.lines()] \
            == [(0, 0), (1, 0), (1, 2), (15, 0)]


class TestLookupFill:
    def test_miss_returns_none(self):
        array = CacheArray(1024, 2, 32)
        assert array.lookup(0x40) is None
        assert array.state_of(0x40) == "I"

    def test_fill_then_hit(self):
        array = CacheArray(1024, 2, 32)
        array.fill(0x40, "M")
        assert array.state_of(0x40) == "M"

    def test_invalid_state_is_miss(self):
        array = CacheArray(1024, 2, 32)
        array.fill(0x40, "M")
        array.set_state(0x40, "I")
        assert array.lookup(0x40) is None

    def test_fill_conflict_requires_eviction(self):
        array = CacheArray(64, 1, 32)  # 2 sets, direct-mapped
        array.fill(0x0, "M")
        with pytest.raises(RuntimeError):
            array.fill(0x40, "M", way=0)  # same set, occupied

    def test_set_state_missing_raises(self):
        array = CacheArray(1024, 2, 32)
        with pytest.raises(KeyError):
            array.set_state(0x40, "M")


class TestLru:
    def test_victim_prefers_free_way(self):
        array = CacheArray(128, 2, 32)  # 2 sets x 2 ways
        array.fill(0x0, "S")
        way, occupant = array.victim(0x80)  # same set 0
        assert occupant is None

    def test_victim_is_least_recently_used(self):
        array = CacheArray(128, 2, 32)
        array.fill(0x0, "S")      # set 0, way 0
        array.fill(0x80, "S")     # set 0, way 1
        array.lookup(0x0)         # touch way 0
        way, occupant = array.victim(0x100)
        assert occupant is not None
        assert array.addr_of(0, occupant) == 0x80

    def test_victim_veto(self):
        array = CacheArray(128, 2, 32)
        array.fill(0x0, "S")
        array.fill(0x80, "S")
        way, occupant = array.victim(0x100, evictable=lambda l: False)
        assert way is None and occupant is None

    def test_addr_of_reconstruction(self):
        array = CacheArray(4096, 4, 32)
        addr = 0x1240 & ~31
        array.fill(addr, "S")
        for set_idx, line in array.lines():
            assert array.addr_of(set_idx, line) == addr


class TestOccupancy:
    def test_occupancy_counts_valid_lines(self):
        array = CacheArray(1024, 4, 32)
        assert array.occupancy() == 0
        array.fill(0x0, "S")
        array.fill(0x20, "M")
        assert array.occupancy() == 2
        array.evict(0x0)
        assert array.occupancy() == 1

    @settings(max_examples=30)
    @given(addrs=st.lists(st.integers(0, 1 << 20), min_size=1, max_size=64))
    def test_property_capacity_never_exceeded(self, addrs):
        array = CacheArray(512, 2, 32)  # 16 lines total
        for addr in addrs:
            line_addr = array.line_addr(addr)
            if array.lookup(line_addr) is not None:
                continue
            way, occupant = array.victim(line_addr)
            if occupant is not None:
                array.evict(array.addr_of(array.set_index(line_addr),
                                          occupant))
            array.fill(line_addr, "S", way=way)
            assert array.occupancy() <= 16
            # Inserted line must be resident.
            assert array.lookup(line_addr) is not None

    def test_is_pow2(self):
        assert is_pow2(1) and is_pow2(64)
        assert not is_pow2(0) and not is_pow2(48)
