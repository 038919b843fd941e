"""Property-based tests for the newer subsystems and core primitives:
ordering baselines (TS, Uncorq), INCF equivalence, arbiter fairness,
notification OR-merge algebra, region-tracker conservatism."""

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.cache.region_tracker import RegionTracker
from repro.core.config import ChipConfig
from repro.cpu.trace import Trace, TraceOp
from repro.noc.arbiter import RotatingPriorityArbiter, rotating_order
from repro.noc.config import NocConfig
from repro.noc.filtering import broadcast_subtree
from repro.noc.routing import LOCAL, broadcast_outports
from repro.ordering_baselines.systems import TimestampSystem, UncorqSystem
from repro.ordering_baselines.uncorq import snake_order
from repro.systems.directory import DirectorySystem

LINE = 32
BASE = 0x4000_0000


def traces_strategy(n_cores, max_ops=5, max_lines=5):
    op = st.tuples(st.sampled_from("RW"), st.integers(0, max_lines - 1),
                   st.integers(1, 30))
    thread = st.lists(op, max_size=max_ops)
    return st.lists(thread, min_size=n_cores, max_size=n_cores)


def build_traces(raw):
    return [Trace([TraceOp(op=o, addr=BASE + line * LINE, think=think)
                   for o, line, think in thread])
            for thread in raw]


class TestTimestampSoak:
    @settings(max_examples=8, deadline=None)
    @given(raw=traces_strategy(9))
    def test_completes_and_agrees(self, raw):
        system = TimestampSystem(ChipConfig.variant(3, 3),
                                 traces=build_traces(raw))
        logs = {n: [] for n in range(9)}
        for node, nic in enumerate(system.nics):
            nic.add_request_listener(
                (lambda k: (lambda p, sid, c, a:
                            logs[k].append((sid, p.req_id))))(node))
        system.run_until_done(200_000)
        assert system.all_cores_finished(), "TS soak deadlocked"
        for node in range(1, 9):
            assert logs[node] == logs[0], "TS global order diverged"
        assert system.late_arrivals() == 0


class TestUncorqSoak:
    # Pinned regression (seed-failure triage, PR 7): this trace set made
    # node 4's GETS stall long enough for Uncorq's retry timer to
    # rebroadcast it under the same req_id; the original copy then won,
    # completed the transaction and retired the MSHR, and the retry's
    # own-request copy arrived MSHR-less — crashing `_process_own`
    # instead of being dropped as stale (now counted under
    # ``l2.snoops.stale_own``; the strict no-MSHR invariant still holds
    # for non-retrying protocols like SCORPIO).
    @settings(max_examples=8, deadline=None)
    @example(raw=[[], [("W", 2, 14)], [("W", 0, 2), ("W", 2, 1)], [],
                  [("W", 2, 5), ("R", 2, 1)], [], [], [],
                  [("R", 0, 1), ("R", 0, 1), ("R", 2, 1)]])
    @given(raw=traces_strategy(9))
    def test_completes_with_single_owner(self, raw):
        system = UncorqSystem(ChipConfig.variant(3, 3),
                              traces=build_traces(raw))
        system.run_until_done(300_000)
        assert system.all_cores_finished(), "Uncorq soak deadlocked"
        from repro.coherence.mosi import State
        for line in range(5):
            addr = BASE + line * LINE
            owners = [l2.node for l2 in system.l2s
                      if l2.state_of(addr).is_owner]
            assert len(owners) <= 1, f"two owners for line {line}"


class TestIncfEquivalence:
    # The divergence this example pins down (seed-failure triage, PR 3):
    # core 1 runs R(3),R(0),W(3) while core 6 runs R(2),R(0),R(3) — a
    # classic data race on line 3.  Unfiltered, core 6's read beats
    # core 1's write (final states: core1=M, core6=I); with INCF the
    # pruned snoop branches change mesh arbitration timing, the write
    # wins the race instead, and the run ends core1=O, core6=S.  *Both*
    # configurations are coherent MOSI outcomes and both executions are
    # SC-admissible; INCF guarantees functional transparency (no snoop a
    # cache needs is ever suppressed — see
    # TestFilterTableProperties.test_never_false_negative_vs_oracle),
    # not cycle-level timing transparency.  Filtering removes flits from
    # the mesh, so races may legitimately resolve differently.  The
    # property below is therefore too strong by design, not a model bug;
    # it stays as a strict-xfail sentinel (the pinned @example always
    # runs first, keeping the xfail deterministic).  The real guarantee
    # is asserted by test_ht_incf_preserves_coherence below.
    @pytest.mark.xfail(
        strict=True,
        reason="INCF is functionally transparent, not timing-transparent: "
               "filtering changes arbitration timing, so racy traces may "
               "resolve races differently (still coherent, still SC)")
    @settings(max_examples=6, deadline=None)
    @example(raw=[[], [("R", 3, 11), ("R", 0, 1), ("W", 3, 1)],
                  [], [], [], [],
                  [("R", 2, 11), ("R", 0, 1), ("R", 3, 1)], [], []])
    @given(raw=traces_strategy(9, max_ops=4))
    def test_ht_incf_equals_unfiltered(self, raw):
        """Cycle-exact final-state equality between INCF on and off.

        Too strong — kept as a documented sentinel; see the class
        comment for the analysis of the pinned counterexample.
        """
        def final_states(incf):
            system = DirectorySystem(
                ChipConfig.variant(3, 3), scheme="HT",
                traces=build_traces(raw), incf=incf)
            system.run_until_done(200_000)
            assert system.all_cores_finished()
            return [[l2.state_of(BASE + line * LINE) for line in range(5)]
                    for l2 in system.l2s]

        assert final_states(False) == final_states(True)

    @settings(max_examples=6, deadline=None)
    @example(raw=[[], [("R", 3, 11), ("R", 0, 1), ("W", 3, 1)],
                  [], [], [], [],
                  [("R", 2, 11), ("R", 0, 1), ("R", 3, 1)], [], []])
    # Found by Hypothesis (PR 5): core 5's final W(1) upgrade completes
    # via its marker while the invalidation broadcast to core 8's S copy
    # is still in flight — at *core completion* the stale S coexists
    # with the new M, at *quiescence* it does not.  The invariant is a
    # quiescence property, hence the post-run drain below.
    @example(raw=[[], [], [], [], [],
                  [("R", 0, 1), ("R", 0, 1), ("W", 1, 1), ("W", 1, 1)],
                  [], [],
                  [("R", 0, 1), ("R", 0, 1), ("R", 1, 1)]])
    @given(raw=traces_strategy(9, max_ops=4))
    def test_ht_incf_preserves_coherence(self, raw):
        """What INCF actually guarantees: filtered runs complete and,
        once in-flight forwards drain, end in a coherent MOSI
        configuration (at most one owner per line; an M copy excludes
        all other copies)."""
        system = DirectorySystem(
            ChipConfig.variant(3, 3), scheme="HT",
            traces=build_traces(raw), incf=True)
        system.run_until_done(200_000)
        assert system.all_cores_finished(), "INCF run deadlocked"
        # Coherence is a quiescence invariant: run_until_done returns at
        # core completion, which may leave the last request's
        # invalidation broadcasts in flight.  Drain them before
        # checking final states.
        system.engine.run(2_000)
        for line in range(5):
            addr = BASE + line * LINE
            states = [l2.state_of(addr) for l2 in system.l2s]
            owners = [s for s in states if s.is_owner]
            assert len(owners) <= 1, f"two owners for line {line}"
            if any(s.name == "M" for s in states):
                copies = [s for s in states if s.name != "I"]
                assert len(copies) == 1, \
                    f"M copy of line {line} coexists with other copies"


def request_lines(min_n=1, min_size=0):
    """(n, asserted): a line count and a subset of its lines — drawn as a
    subset so nothing is filtered (an ``assume`` over sets from 0..15
    tripped Hypothesis's filter_too_much health check on some seeds)."""
    return st.integers(min_n, 16).flatmap(lambda n: st.tuples(
        st.just(n), st.sets(st.integers(0, n - 1), min_size=min_size)))


class TestArbiterProperties:
    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(2, 12), start=st.integers(0, 11),
           rounds=st.integers(4, 40))
    def test_round_robin_fairness_under_full_load(self, n, start, rounds):
        # With every line asserted, n consecutive grants visit every
        # requester exactly once (no starvation, perfect rotation).
        arb = RotatingPriorityArbiter(n, start=start % n)
        grants = [arb.grant((1 << n) - 1) for _ in range(rounds * n)]
        for chunk_start in range(0, len(grants), n):
            chunk = grants[chunk_start:chunk_start + n]
            if len(chunk) == n:
                assert sorted(chunk) == list(range(n))

    @settings(max_examples=50, deadline=None)
    @given(case=request_lines(), pointer=st.integers(0, 15))
    def test_order_matches_stateless_helper(self, case, pointer):
        n, asserted = case
        arb = RotatingPriorityArbiter(n, start=pointer % n)
        lines = [i in asserted for i in range(n)]
        assert arb.order(lines) == rotating_order(n, pointer % n, asserted)

    @settings(max_examples=50, deadline=None)
    @given(case=request_lines(), pointer=st.integers(0, 15))
    def test_order_is_permutation_of_asserted(self, case, pointer):
        n, asserted = case
        order = rotating_order(n, pointer % n, asserted)
        assert sorted(order) == sorted(asserted)

    @settings(max_examples=30, deadline=None)
    @given(case=request_lines(min_n=2, min_size=1),
           pointer=st.integers(0, 15))
    def test_pointer_member_always_first(self, case, pointer):
        n, asserted = case
        pointer %= n
        order = rotating_order(n, pointer, asserted)
        if pointer in asserted:
            assert order[0] == pointer


class TestNotificationMergeAlgebra:
    """OR-merging is what lets notifications combine contention-free."""

    vectors = st.integers(min_value=0, max_value=(1 << 40) - 1)

    @settings(max_examples=60, deadline=None)
    @given(a=vectors, b=vectors, c=vectors)
    def test_or_merge_abelian_and_idempotent(self, a, b, c):
        assert a | b == b | a
        assert (a | b) | c == a | (b | c)
        assert a | a == a
        assert a | 0 == a

    @settings(max_examples=30, deadline=None)
    @given(sids=st.sets(st.integers(0, 35), min_size=1))
    def test_merged_vector_decodes_every_sender(self, sids):
        merged = 0
        for sid in sids:
            merged |= 1 << sid
        decoded = {i for i in range(36) if merged >> i & 1}
        assert decoded == sids


class TestRegionTrackerProperties:
    @settings(max_examples=50, deadline=None)
    @given(ops=st.lists(st.tuples(st.booleans(),
                                  st.integers(0, 15)), max_size=60))
    def test_never_false_negative(self, ops):
        # Any region holding at least one live line must report
        # may_cache=True (false negatives break coherence).
        tracker = RegionTracker(region_bytes=4096, entries=8)
        live = {}
        for insert, region in ops:
            addr = region * 4096 + 64
            if insert:
                tracker.line_inserted(addr)
                live[region] = live.get(region, 0) + 1
            elif live.get(region):
                tracker.line_evicted(addr)
                live[region] -= 1
        for region, count in live.items():
            if count > 0:
                assert tracker.may_cache(region * 4096 + 64)

    @settings(max_examples=40, deadline=None)
    @given(regions=st.lists(st.integers(0, 200), min_size=1, max_size=40))
    def test_saturation_is_conservative(self, regions):
        tracker = RegionTracker(region_bytes=4096, entries=4)
        for region in regions:
            tracker.line_inserted(region * 4096)
        if tracker.saturated:
            # Saturated trackers must never filter anything.
            assert tracker.may_cache(0xDEAD_0000)


class TestTopologyProperties:
    @settings(max_examples=40, deadline=None)
    @given(width=st.integers(2, 9), height=st.integers(2, 9))
    def test_snake_order_is_hamiltonian(self, width, height):
        order = snake_order(width, height)
        assert sorted(order) == list(range(width * height))
        for here, there in zip(order, order[1:]):
            dx = abs(here % width - there % width)
            dy = abs(here // width - there // width)
            assert dx + dy == 1

    @settings(max_examples=25, deadline=None)
    @given(width=st.integers(2, 7), height=st.integers(2, 7),
           src=st.integers(0, 48))
    def test_broadcast_subtrees_partition_all_nodes(self, width, height,
                                                    src):
        assume(src < width * height)
        outports = broadcast_outports(src, LOCAL, width, height)
        seen = []
        for port in outports:
            seen.extend(broadcast_subtree(src, port, width, height))
        assert sorted(seen) == list(range(width * height))


class TestFilterTableProperties:
    @settings(max_examples=50, deadline=None)
    @given(capacity=st.integers(1, 16),
           queries=st.lists(st.tuples(st.integers(0, 8),
                                      st.integers(0, 31)),
                            min_size=1, max_size=80))
    def test_never_false_negative_vs_oracle(self, capacity, queries):
        # Whatever the capacity, the table may only ADD forwarding
        # (return True where the oracle says False), never suppress it.
        from repro.noc.filtering import FilterTable
        interested = {(n, r) for n in range(9) for r in range(32)
                      if (n * 31 + r) % 3 == 0}
        oracle = lambda node, addr: (node, addr // 4096) in interested
        table = FilterTable(oracle, capacity=capacity)
        for node, region in queries:
            addr = region * 4096 + 128
            if oracle(node, addr):
                assert table(node, addr) is True

    @settings(max_examples=30, deadline=None)
    @given(queries=st.lists(st.integers(0, 31), min_size=1, max_size=60))
    def test_tracked_count_never_exceeds_capacity(self, queries):
        from repro.noc.filtering import FilterTable
        table = FilterTable(lambda n, a: False, capacity=4)
        for region in queries:
            table(0, region * 4096)
            assert table.tracked_regions() <= 4


class TestLogicalRingProperties:
    @settings(max_examples=30, deadline=None)
    @given(width=st.integers(2, 7), height=st.integers(2, 7),
           origin=st.integers(0, 48), start=st.integers(0, 50))
    def test_completion_equals_traversal_latency(self, width, height,
                                                 origin, start):
        from repro.noc.config import NocConfig
        from repro.ordering_baselines.uncorq import LogicalRing
        from repro.sim.stats import StatsRegistry
        assume(origin < width * height)
        ring = LogicalRing(NocConfig(width=width, height=height),
                           StatsRegistry())
        done = {}
        ring.launch(1, origin, start, lambda rid, c: done.setdefault(rid, c))
        deadline = start + ring.traversal_latency()
        for cycle in range(start, deadline + 2):
            ring.step(cycle)
        # Origin-independent: a full circle costs the same from anywhere.
        assert done[1] == deadline


class TestNotificationEndToEnd:
    @settings(max_examples=20, deadline=None)
    @given(announcements=st.lists(
        st.sets(st.integers(0, 8)), min_size=1, max_size=6))
    def test_all_trackers_derive_identical_esid_sequences(self,
                                                          announcements):
        # Feed the same window vectors to N independent trackers (what
        # the OR-mesh guarantees) and drain them in different
        # interleavings: the (position, esid) sequences must coincide.
        from repro.notification.tracker import NotificationTracker
        trackers = [NotificationTracker(9, 1, queue_depth=64)
                    for _ in range(3)]
        for senders in announcements:
            vector = 0
            for sid in senders:
                vector |= 1 << sid
            if not vector:
                continue
            for tracker in trackers:
                tracker.push(vector)
        sequences = []
        for tracker in trackers:
            seq = []
            while tracker.current_esid() is not None:
                seq.append((tracker.consumed, tracker.current_esid()))
                tracker.consume_esid()
            sequences.append(seq)
        assert sequences[0] == sequences[1] == sequences[2]
