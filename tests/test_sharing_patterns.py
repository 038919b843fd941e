"""Migratory / producer-consumer pattern tests (repro.workloads.patterns)."""

import pytest

from repro.coherence.mosi import State
from repro.core.config import ChipConfig
from repro.cpu.trace import Trace
from repro.systems.directory import DirectorySystem
from repro.systems.scorpio import ScorpioSystem
from repro.workloads.patterns import (BUFFER_BASE, MIGRATORY_BASE,
                                      migratory_traces,
                                      producer_consumer_traces)

LINE = 32


def pad(traces, n):
    return list(traces) + [Trace([])] * (n - len(traces))


def run_scorpio(traces, max_cycles=400_000):
    system = ScorpioSystem(ChipConfig.variant(3, 3), traces=pad(traces, 9))
    system.run_until_done(max_cycles)
    assert system.all_cores_finished()
    return system


class TestMigratoryGenerator:
    def test_shape(self):
        traces = migratory_traces(4, rounds=2, blocks=1, lines_per_block=2)
        assert len(traces) == 4
        for trace in traces:
            # Per round per block: R,R then W,W.
            kinds = [op.op for op in trace]
            assert kinds == ["R", "R", "W", "W"] * 2

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            migratory_traces(0)
        with pytest.raises(ValueError):
            migratory_traces(4, rounds=0)

    def test_ownership_migrates(self):
        traces = migratory_traces(4, rounds=2, blocks=1,
                                  lines_per_block=1)
        system = run_scorpio(traces)
        # Everyone wrote the block at least once: the line's version
        # counts every write, and data moved cache-to-cache.
        version = max(l2.line_version(MIGRATORY_BASE)
                      for l2 in system.l2s)
        assert version == 4 * 2   # 4 cores x 2 rounds x 1 write
        assert system.stats.counter("l2.data_forwards") >= 4

    def test_last_writer_owns(self):
        traces = migratory_traces(3, rounds=1, blocks=1,
                                  lines_per_block=1)
        system = run_scorpio(traces)
        owners = [l2.node for l2 in system.l2s
                  if l2.state_of(MIGRATORY_BASE).is_owner]
        assert owners == [2]   # the final core in the rotation


class TestProducerConsumerGenerator:
    def test_shape(self):
        traces = producer_consumer_traces(3, rounds=2, buffer_lines=2)
        assert len(traces) == 4
        producer = traces[0]
        assert [op.op for op in producer].count("W") == 4

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            producer_consumer_traces(0)
        with pytest.raises(ValueError):
            producer_consumer_traces(2, buffer_lines=0)

    def test_consumers_end_shared(self):
        traces = producer_consumer_traces(3, rounds=2, buffer_lines=2)
        system = run_scorpio(traces)
        # After the final consumption round every consumer holds S
        # copies and the producer retains ownership (M or O_D).
        for consumer in range(1, 4):
            state = system.l2s[consumer].state_of(BUFFER_BASE)
            assert state is State.S, f"consumer {consumer}: {state}"
        assert system.l2s[0].state_of(BUFFER_BASE).is_owner

    def test_dirty_sharing_stays_on_chip(self):
        # The O_D state keeps producer data on chip: consumers are fed
        # by the producer's cache, not by DRAM writebacks.
        traces = producer_consumer_traces(3, rounds=2, buffer_lines=2)
        system = run_scorpio(traces)
        forwards = system.stats.counter("l2.data_forwards")
        assert forwards >= 2 * 2   # every round re-shares the buffer
        # No eviction happened, so nothing was written back to memory.
        assert system.stats.counter("mc.writebacks_received") == 0

    def test_migratory_beats_directory_on_handoff(self):
        traces = migratory_traces(9, rounds=2, blocks=1,
                                  lines_per_block=2)
        scorpio = run_scorpio(list(traces))
        directory = DirectorySystem(ChipConfig.variant(3, 3), scheme="LPD",
                                    traces=pad(traces, 9))
        directory.run_until_done(400_000)
        assert directory.all_cores_finished()
        assert (scorpio.stats.mean("l2.miss_latency.cache")
                < directory.stats.mean("l2.miss_latency.cache"))
