"""Lock/barrier workload tests (repro.workloads.locks)."""

import pytest

from repro.core.config import ChipConfig
from repro.systems.directory import DirectorySystem
from repro.systems.scorpio import ScorpioSystem
from repro.workloads.locks import (LOCK_BASE, barrier_traces,
                                   lock_contention_traces)

LINE = 32


def run_scorpio(traces, width=3, height=3, max_cycles=300_000):
    system = ScorpioSystem(ChipConfig.variant(width, height), traces=traces)
    system.run_until_done(max_cycles)
    assert system.all_cores_finished()
    return system


class TestGenerators:
    def test_lock_trace_shape(self):
        traces = lock_contention_traces(4, acquisitions_per_core=2,
                                        critical_ops=3)
        assert len(traces) == 4
        for trace in traces:
            kinds = [op.op for op in trace]
            # Each acquisition: A, then R,R,W critical, then W release.
            assert kinds == ["A", "R", "R", "W", "W"] * 2

    def test_lock_trace_deterministic(self):
        a = lock_contention_traces(4, seed=7)
        b = lock_contention_traces(4, seed=7)
        assert [list(t) for t in a] == [list(t) for t in b]
        c = lock_contention_traces(4, seed=8)
        assert [list(t) for t in a] != [list(t) for t in c]

    def test_barrier_trace_counts(self):
        traces = barrier_traces(5, phases=3, compute_ops=4)
        for trace in traces:
            assert sum(1 for op in trace if op.op == "A") == 3
            assert len(trace) == 3 * (4 + 1)

    def test_barrier_lines_distinct_per_phase(self):
        traces = barrier_traces(2, phases=3, compute_ops=0)
        barriers = [op.addr for op in traces[0] if op.op == "A"]
        assert len(set(barriers)) == 3

    def test_private_lines_disjoint_between_cores(self):
        traces = barrier_traces(4, phases=1, compute_ops=8,
                                private_lines=4)
        footprints = []
        for trace in traces:
            footprints.append({op.addr & ~(LINE - 1) for op in trace
                               if op.op != "A"})
        for i in range(4):
            for j in range(i + 1, 4):
                assert not footprints[i] & footprints[j]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            lock_contention_traces(0)
        with pytest.raises(ValueError):
            lock_contention_traces(2, critical_ops=0)
        with pytest.raises(ValueError):
            barrier_traces(2, phases=0)
        with pytest.raises(ValueError):
            barrier_traces(0)


class TestLockRuns:
    def test_lock_run_completes_with_single_owner(self):
        traces = lock_contention_traces(9, acquisitions_per_core=3)
        system = run_scorpio(traces)
        owners = [l2.node for l2 in system.l2s
                  if l2.state_of(LOCK_BASE).is_owner]
        assert len(owners) <= 1

    @pytest.mark.parametrize("protocol", ["scorpio", "lpd", "ht"])
    def test_atomics_serialize_lock_updates(self, protocol):
        # Total versions on the lock line = all acquisitions + releases
        # (every one is a distinct, globally ordered update) — under the
        # broadcast fabric and both directory indirections alike.
        n, acq = 6, 2
        traces = lock_contention_traces(n, acquisitions_per_core=acq)
        traces += [type(traces[0])([])] * 3   # pad to 9 cores
        if protocol == "scorpio":
            system = run_scorpio(traces)
        else:
            system = DirectorySystem(ChipConfig.variant(3, 3),
                                     scheme=protocol.upper(), traces=traces)
            system.run_until_done(300_000)
            assert system.all_cores_finished()
        version = max(l2.line_version(LOCK_BASE) for l2 in system.l2s)
        assert version == n * acq * 2

    def test_lock_handoffs_are_cache_to_cache(self):
        traces = lock_contention_traces(9, acquisitions_per_core=3)
        system = run_scorpio(traces)
        assert system.stats.counter("l2.data_forwards") > 9

    def test_barrier_run_completes_on_directory_too(self):
        traces = barrier_traces(9, phases=2, compute_ops=3)
        system = DirectorySystem(ChipConfig.variant(3, 3), scheme="LPD",
                                 traces=traces)
        system.run_until_done(300_000)
        assert system.all_cores_finished()

    def test_scorpio_lock_handoff_beats_directory(self):
        # The domain claim behind Figure 6b: lock migration is all
        # cache-to-cache transfers, where SCORPIO avoids indirection.
        traces = lock_contention_traces(9, acquisitions_per_core=3,
                                        seed=3)
        scorpio = run_scorpio(list(traces))
        directory = DirectorySystem(ChipConfig.variant(3, 3), scheme="LPD",
                                    traces=traces)
        directory.run_until_done(300_000)
        assert directory.all_cores_finished()
        assert (scorpio.stats.mean("l2.miss_latency.cache")
                < directory.stats.mean("l2.miss_latency.cache"))
