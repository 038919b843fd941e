"""Banked DDR2 DRAM model tests (repro.memory.dram)."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ChipConfig
from repro.cpu.trace import Trace, TraceOp
from repro.memory.controller import MemoryConfig
from repro.memory.dram import DramConfig, DramModel
from repro.sim.stats import StatsRegistry
from repro.systems.scorpio import ScorpioSystem

LINE = 32
ADDR = 0x4000_0000


def model(**overrides):
    return DramModel(DramConfig(**overrides), LINE, StatsRegistry())


class TestDramConfig:
    def test_latency_ordering(self):
        cfg = DramConfig()
        assert cfg.hit_latency < cfg.closed_latency < cfg.conflict_latency

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            DramConfig(n_banks=0)
        with pytest.raises(ValueError):
            DramConfig(row_bytes=1000)      # not a power of two
        with pytest.raises(ValueError):
            DramModel(DramConfig(row_bytes=16), 32)   # a row < a line


class TestDramTiming:
    def test_first_access_opens_row(self):
        dram = model()
        done = dram.access(ADDR, 0)
        cfg = dram.config
        assert done == cfg.closed_latency + cfg.burst_cycles
        assert dram.stats.counter("dram.row_closed") == 1

    def test_second_access_same_row_hits(self):
        dram = model()
        first = dram.access(ADDR, 0)
        # Same bank, same row: next line n_banks lines away.
        same_row = ADDR + LINE * dram.config.n_banks
        assert dram.bank_of(same_row) == dram.bank_of(ADDR)
        assert dram.row_of(same_row) == dram.row_of(ADDR)
        done = dram.access(same_row, first)
        assert done - first == (dram.config.hit_latency
                                + dram.config.burst_cycles)
        assert dram.stats.counter("dram.row_hits") == 1

    def test_row_conflict_pays_precharge(self):
        dram = model()
        first = dram.access(ADDR, 0)
        conflict = ADDR + dram.config.row_bytes * dram.config.n_banks
        assert dram.bank_of(conflict) == dram.bank_of(ADDR)
        assert dram.row_of(conflict) != dram.row_of(ADDR)
        done = dram.access(conflict, first)
        assert done - first == (dram.config.conflict_latency
                                + dram.config.burst_cycles)
        assert dram.stats.counter("dram.row_conflicts") == 1

    def test_adjacent_lines_hit_different_banks(self):
        dram = model()
        banks = {dram.bank_of(ADDR + i * LINE)
                 for i in range(dram.config.n_banks)}
        assert len(banks) == dram.config.n_banks

    def test_bank_parallelism_beats_serialization(self):
        # N simultaneous requests to N banks overlap their activates;
        # the same N requests to one bank serialize.
        parallel = model()
        done_parallel = max(parallel.access(ADDR + i * LINE, 0)
                            for i in range(4))
        serial = model()
        stride = LINE * serial.config.n_banks  # same bank, same row
        done_serial = max(serial.access(ADDR + i * stride, 0)
                          for i in range(4))
        assert done_parallel < done_serial

    def test_bus_serializes_bursts(self):
        dram = model()
        finishes = sorted(dram.access(ADDR + i * LINE, 0)
                          for i in range(4))
        for earlier, later in zip(finishes, finishes[1:]):
            assert later - earlier >= dram.config.burst_cycles

    def test_idle_tracking(self):
        dram = model()
        assert dram.idle_at(0)
        done = dram.access(ADDR, 0)
        assert not dram.idle_at(done - 1)
        assert dram.idle_at(done)


class TestDramProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1,
                    max_size=40),
           st.integers(min_value=1, max_value=16))
    def test_completion_after_issue_and_bus_monotone(self, line_idxs, banks):
        dram = DramModel(DramConfig(n_banks=banks), LINE, StatsRegistry())
        cycle = 0
        last_done = 0
        for idx in line_idxs:
            done = dram.access(idx * LINE, cycle)
            min_lat = dram.config.hit_latency + dram.config.burst_cycles
            assert done >= cycle + min_lat
            assert done >= last_done + dram.config.burst_cycles
            last_done = done
            cycle += 1

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1 << 16),
                    min_size=1, max_size=30))
    def test_classification_total(self, line_idxs):
        dram = model()
        for idx in line_idxs:
            dram.access(idx * LINE, 0)
        total = (dram.stats.counter("dram.row_hits")
                 + dram.stats.counter("dram.row_closed")
                 + dram.stats.counter("dram.row_conflicts"))
        assert total == len(line_idxs)


class TestBankedSystemIntegration:
    def test_scorpio_runs_with_banked_memory(self):
        config = replace(ChipConfig.variant(3, 3),
                         memory=MemoryConfig(banked=True))
        traces = [Trace([TraceOp("R", ADDR + c * LINE, 1)])
                  for c in range(9)]
        system = ScorpioSystem(config, traces=traces)
        system.run_until_done(60_000)
        assert system.all_cores_finished()
        hits = sum(v for k, v in system.stats.counters.items()
                   if ".row_hits" in k)
        total = sum(v for k, v in system.stats.counters.items()
                    if ".row_" in k)
        assert total == 9
        assert hits >= 0   # classification happened

    def test_row_locality_visible_in_latency(self):
        # Sequential lines in one row (after warm-up) finish faster than
        # row-conflicting strides.
        def run(stride_rows):
            dram_cfg = DramConfig(n_banks=1)
            stride = LINE if not stride_rows \
                else dram_cfg.row_bytes * dram_cfg.n_banks
            ops = [TraceOp("R", ADDR + i * stride, 1 + 200 * i)
                   for i in range(6)]
            system = ScorpioSystem(
                replace(ChipConfig.variant(3, 3), memory=MemoryConfig(
                    banked=True, dram_config=dram_cfg)),
                traces=[Trace(ops)] + [Trace([])] * 8)
            system.run_until_done(100_000)
            assert system.all_cores_finished()
            return system.engine.cycle

        assert run(stride_rows=False) < run(stride_rows=True)
