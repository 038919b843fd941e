"""INCF in-network coherence filtering tests (Sec. 5.3 future work)."""

import pytest

from repro.coherence.messages import CoherenceRequest, DirForward, ReqKind
from repro.coherence.mosi import State
from repro.core.config import ChipConfig
from repro.cpu.trace import Trace, TraceOp
from repro.noc.filtering import (BroadcastFilter, broadcast_subtree,
                                 l2_interest_oracle, snoop_target)
from repro.noc.routing import LOCAL, broadcast_outports
from repro.ordering_baselines.systems import TokenBSystem
from repro.sim.stats import StatsRegistry
from repro.systems.directory import DirectorySystem
from repro.workloads.synthetic import uniform_random_trace

LINE = 32
ADDR = 0x4000_0000


def pad(traces, n):
    return list(traces) + [Trace([])] * (n - len(traces))


def run_done(system, max_cycles=120_000):
    system.run_until_done(max_cycles)
    assert system.all_cores_finished()
    return system.engine.cycle


class TestBroadcastSubtree:
    @pytest.mark.parametrize("width,height", [(3, 3), (4, 4), (6, 6)])
    def test_source_branches_partition_the_mesh(self, width, height):
        for src in range(width * height):
            outports = broadcast_outports(src, LOCAL, width, height)
            seen = []
            for port in outports:
                seen.extend(broadcast_subtree(src, port, width, height))
            assert sorted(seen) == list(range(width * height))

    def test_local_subtree_is_self(self):
        assert broadcast_subtree(7, LOCAL, 3, 3) == frozenset({7})

    def test_subtrees_disjoint(self):
        outports = broadcast_outports(4, LOCAL, 3, 3)
        trees = [broadcast_subtree(4, p, 3, 3) for p in outports]
        total = sum(len(t) for t in trees)
        assert total == len(frozenset().union(*trees)) == 9


class TestSnoopTarget:
    def test_coherence_request(self):
        req = CoherenceRequest(kind=ReqKind.GETS, addr=ADDR, requester=3)
        assert snoop_target(req) == (ADDR, 3)

    def test_put_is_exempt(self):
        req = CoherenceRequest(kind=ReqKind.PUT, addr=ADDR, requester=3)
        assert snoop_target(req) is None

    def test_ht_snoop_forward(self):
        req = CoherenceRequest(kind=ReqKind.GETX, addr=ADDR, requester=5)
        fwd = DirForward(request=req, action="snoop", home=0)
        assert snoop_target(fwd) == (ADDR, 5)

    def test_other_forwards_not_filterable(self):
        req = CoherenceRequest(kind=ReqKind.GETX, addr=ADDR, requester=5)
        fwd = DirForward(request=req, action="invalidate", home=0)
        assert snoop_target(fwd) is None


class TestBroadcastFilterUnit:
    def _filter(self, interested_nodes, always=()):
        return BroadcastFilter(
            3, 3, lambda node, addr: node in interested_nodes,
            always_interested=always, stats=StatsRegistry())

    def test_prunes_uninterested_branches(self):
        flt = self._filter({4})   # only the centre node cares
        req = CoherenceRequest(kind=ReqKind.GETS, addr=ADDR, requester=4)
        outports = broadcast_outports(4, LOCAL, 3, 3)
        kept = flt.prune(4, outports, req)
        assert kept == frozenset({LOCAL})
        assert flt.stats.counter("incf.branches_pruned") == 4

    def test_requester_branch_always_kept(self):
        flt = self._filter(set())          # nobody is interested...
        req = CoherenceRequest(kind=ReqKind.GETS, addr=ADDR, requester=0)
        outports = broadcast_outports(4, LOCAL, 3, 3)
        kept = flt.prune(4, outports, req)  # ...but node 0 still snoops
        trees = {p: broadcast_subtree(4, p, 3, 3) for p in outports}
        assert kept == frozenset(p for p in outports if 0 in trees[p])

    def test_always_interested_nodes_kept(self):
        flt = self._filter(set(), always={8})
        req = CoherenceRequest(kind=ReqKind.GETS, addr=ADDR, requester=8)
        kept = flt.prune(0, broadcast_outports(0, LOCAL, 3, 3), req)
        trees = {p: broadcast_subtree(0, p, 3, 3)
                 for p in broadcast_outports(0, LOCAL, 3, 3)}
        assert all(8 in trees[p] or p == LOCAL and False for p in kept) \
            or kept  # every kept branch leads to node 8
        for port in kept:
            assert 8 in trees[port]

    def test_unknown_payload_not_filtered(self):
        flt = self._filter(set())
        outports = broadcast_outports(4, LOCAL, 3, 3)
        assert flt.prune(4, outports, object()) == outports


def _ht_system(traces, incf, width=3, height=3):
    config = ChipConfig.variant(width, height)
    return DirectorySystem(config, scheme="HT",
                           traces=pad(traces, width * height), incf=incf)


class TestIncfOnHt:
    def test_coherence_preserved(self):
        system = _ht_system([
            Trace([TraceOp("W", ADDR, 1)]),
            Trace([TraceOp("R", ADDR, 600)]),
        ], incf=True)
        run_done(system)
        assert system.l2s[0].state_of(ADDR) is State.O
        assert system.l2s[1].state_of(ADDR) is State.S

    def test_saves_links(self):
        # Two cores touching disjoint lines: each snoop broadcast only
        # needs the requester (and nothing else caches the region).
        system = _ht_system([
            Trace([TraceOp("R", ADDR + i * LINE, 1 + i * 50)
                   for i in range(8)]),
            Trace([TraceOp("R", ADDR + 0x100000 + i * LINE, 1 + i * 50)
                   for i in range(8)]),
        ], incf=True)
        run_done(system)
        assert system.stats.counter("incf.links_saved") > 0
        assert system.stats.counter("incf.broadcasts_trimmed") > 0

    def test_same_outcome_as_unfiltered(self):
        def build(incf):
            traces = [uniform_random_trace(c, 10, 8, write_fraction=0.5,
                                           think=4, seed=31)
                      for c in range(9)]
            return _ht_system(traces, incf=incf)

        base = build(False)
        run_done(base, 200_000)
        filtered = build(True)
        run_done(filtered, 200_000)
        for node in range(9):
            for line in range(8):
                addr = ADDR + line * LINE
                assert (base.l2s[node].state_of(addr)
                        is filtered.l2s[node].state_of(addr)), \
                    f"state diverged at node {node} line {line}"
        assert (base.total_completed_ops()
                == filtered.total_completed_ops())


class TestIncfOnTokenB:
    def test_soak_and_savings(self):
        config = ChipConfig.variant(3, 3)
        traces = [uniform_random_trace(c, 10, 8, write_fraction=0.4,
                                       think=5, seed=37) for c in range(9)]
        system = TokenBSystem(config, traces=traces, incf=True)
        run_done(system, 300_000)
        assert system.stats.counter("incf.links_saved") > 0

    def test_mc_branches_never_pruned(self):
        # A lone write to an uncached line: the broadcast must still
        # reach the snoopy memory controller that owns the address.
        config = ChipConfig.variant(3, 3)
        system = TokenBSystem(config, traces=pad([
            Trace([TraceOp("W", ADDR, 1)]),
        ], 9), incf=True)
        run_done(system)
        assert system.l2s[0].state_of(ADDR).is_owner
        assert system.stats.counter("mc.dram_reads") == 1


class TestFilterTable:
    def _oracle(self, interested):
        return lambda node, addr: (node, addr // 4096) in interested

    def test_rejects_bad_parameters(self):
        from repro.noc.filtering import FilterTable
        with pytest.raises(ValueError):
            FilterTable(lambda n, a: True, capacity=0)
        with pytest.raises(ValueError):
            FilterTable(lambda n, a: True, region_bytes=3000)

    def test_tracked_region_answers_oracle(self):
        from repro.noc.filtering import FilterTable
        table = FilterTable(self._oracle(set()), capacity=4)
        # First touch admits the region; a repeat query can answer.
        assert table(0, 0x1000) is True      # conservative (not tracked)
        assert table(0, 0x1000) is False     # now tracked: oracle says no
        assert table.conservative_fallbacks == 1

    def test_capacity_overflow_is_conservative(self):
        from repro.noc.filtering import FilterTable
        table = FilterTable(self._oracle(set()), capacity=2)
        regions = [0x0000, 0x2000, 0x4000, 0x6000]
        for addr in regions:
            table(0, addr)
        # Cycling through 4 regions with 2 entries: every fresh query
        # falls back to "interested" (forward).
        assert table(0, regions[0]) is True
        assert table.conservative_fallbacks >= 4
        assert table.tracked_regions() <= 2

    def test_lru_keeps_hot_region(self):
        from repro.noc.filtering import FilterTable
        table = FilterTable(self._oracle(set()), capacity=2)
        hot = 0x1000
        table(0, hot)
        for addr in (0x3000, hot, 0x5000, hot, 0x7000, hot):
            table(0, addr)
        # The hot region stayed tracked, so it answers from the oracle.
        assert table(0, hot) is False

    def test_finite_table_saves_less_than_oracle(self):
        def run(capacity):
            config = ChipConfig.variant(3, 3)
            traces = [uniform_random_trace(c, 24, 12, write_fraction=0.4,
                                           think=4, seed=61)
                      for c in range(9)]
            system = DirectorySystem(config, scheme="HT",
                                     traces=pad(traces, 9), incf=True,
                                     incf_table_capacity=capacity)
            run_done(system, 300_000)
            return system.stats.counter("incf.links_saved")

        config = ChipConfig.variant(3, 3)
        traces = [uniform_random_trace(c, 24, 12, write_fraction=0.4,
                                       think=4, seed=61) for c in range(9)]
        oracle_system = DirectorySystem(config, scheme="HT",
                                        traces=pad(traces, 9), incf=True)
        run_done(oracle_system, 300_000)
        oracle_saved = oracle_system.stats.counter("incf.links_saved")
        tiny = run(1)
        big = run(256)
        assert tiny <= big <= oracle_saved
        assert big > 0

    def test_finite_table_preserves_coherence(self):
        config = ChipConfig.variant(3, 3)
        system = DirectorySystem(config, scheme="HT", traces=pad([
            Trace([TraceOp("W", ADDR, 1)]),
            Trace([TraceOp("R", ADDR, 600)]),
        ], 9), incf=True, incf_table_capacity=1)
        run_done(system)
        assert system.l2s[0].state_of(ADDR) is State.O
        assert system.l2s[1].state_of(ADDR) is State.S
