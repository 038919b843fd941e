"""Unit + property tests for the rotating priority arbiters."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.noc.arbiter import RotatingPriorityArbiter, rotating_order


def scan_grant(pointer, lines):
    """The reference arbiter: walk the bool vector from the pointer,
    wrapping once; (granted line or None, pointer after the grant)."""
    n = len(lines)
    for offset in range(n):
        idx = (pointer + offset) % n
        if lines[idx]:
            return idx, (idx + 1) % n
    return None, pointer


class TestRotatingArbiter:
    """Request lines are an int mask: bit ``i`` is line ``i``."""

    def test_grants_requesting_line(self):
        arb = RotatingPriorityArbiter(4)
        assert arb.grant(0b0010) == 1

    def test_none_when_no_requests(self):
        arb = RotatingPriorityArbiter(4)
        assert arb.grant(0) is None
        assert arb.pointer == 0

    def test_round_robin_fairness(self):
        arb = RotatingPriorityArbiter(3)
        grants = [arb.grant(0b111) for _ in range(6)]
        assert grants == [0, 1, 2, 0, 1, 2]

    def test_pointer_skips_idle(self):
        arb = RotatingPriorityArbiter(4)
        assert arb.grant(0b1001) == 0
        # Pointer now at 1; lines 1,2 idle -> grant 3.
        assert arb.grant(0b1001) == 3

    def test_no_rotation_when_disabled(self):
        arb = RotatingPriorityArbiter(3)
        assert arb.grant(0b111, rotate=False) == 0
        assert arb.grant(0b111, rotate=False) == 0

    def test_order_lists_by_priority(self):
        arb = RotatingPriorityArbiter(5, start=3)
        assert arb.order([True, True, False, True, True]) == [3, 4, 0, 1]

    def test_length_mismatch_raises(self):
        arb = RotatingPriorityArbiter(3)
        with pytest.raises(ValueError):
            arb.grant(0b1000)          # line 3 of a 3-line arbiter

    @given(n=st.integers(1, 64), pointer=st.integers(0, 63),
           idx=st.integers(0, 63))
    def test_grant_sole_is_grant_of_the_one_hot_vector(self, n, pointer,
                                                       idx):
        idx %= n
        sole = RotatingPriorityArbiter(n, start=pointer)
        scan = RotatingPriorityArbiter(n, start=pointer)
        assert sole.grant_sole(idx) == scan.grant(1 << idx) == idx
        assert sole.pointer == scan.pointer

    @given(n=st.integers(1, 16), pointer=st.integers(0, 15),
           requests=st.integers(0, (1 << 16) - 1), rotate=st.booleans())
    def test_mask_grant_is_the_reference_scan(self, n, pointer, requests,
                                              rotate):
        """The mask grant equals a scan of the bool vector from the
        pointer, and leaves the pointer where that scan does."""
        pointer %= n
        requests &= (1 << n) - 1
        arb = RotatingPriorityArbiter(n, start=pointer)
        granted, after = scan_grant(
            pointer, [bool(requests >> line & 1) for line in range(n)])
        assert arb.grant(requests, rotate=rotate) == granted
        assert arb.pointer == (after if rotate else pointer)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            RotatingPriorityArbiter(0)


class TestRotatingOrder:
    def test_basic(self):
        assert rotating_order(6, 0, {1, 3}) == [1, 3]
        assert rotating_order(6, 4, {1, 3}) == [1, 3]
        assert rotating_order(6, 2, {1, 3}) == [3, 1]

    def test_wraparound(self):
        assert rotating_order(6, 4, {1, 5}) == [5, 1]

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            rotating_order(4, 0, {9})

    @given(n=st.integers(2, 64), pointer=st.integers(0, 63),
           members=st.sets(st.integers(0, 63)))
    def test_property_consistent_and_complete(self, n, pointer, members):
        members = {m for m in members if m < n}
        pointer %= n
        order = rotating_order(n, pointer, members)
        # Every member appears exactly once, nothing else.
        assert sorted(order) == sorted(members)
        # All nodes using the same pointer derive the same order.
        assert order == rotating_order(n, pointer, set(members))
        # Relative order respects rotation: positions are increasing in
        # (sid - pointer) mod n.
        keys = [(sid - pointer) % n for sid in order]
        assert keys == sorted(keys)
