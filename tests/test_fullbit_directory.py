"""Full-bit-vector directory tests (Sec. 5: the LPD ~ full-bit claim)."""

from dataclasses import replace

import pytest

from repro.coherence.directory import DirectoryConfig
from repro.coherence.mosi import State
from repro.core.config import ChipConfig
from repro.cpu.trace import Trace, TraceOp
from repro.systems.directory import DirectorySystem
from repro.workloads.synthetic import uniform_random_trace

LINE = 32
ADDR = 0x4000_0000
DIR_BYTES = ChipConfig().directory_cache_bytes


def small_system(traces=None, width=3, height=3, **kwargs):
    config = ChipConfig.variant(width, height)
    if traces is not None:
        traces = list(traces) + [Trace([])] * (width * height - len(traces))
    return DirectorySystem(config, scheme="FULLBIT", traces=traces,
                           **kwargs)


def run_done(system, max_cycles=60_000):
    system.run_until_done(max_cycles)
    assert system.all_cores_finished()
    return system.engine.cycle


class TestFullbitConfig:
    def test_entry_bits_include_full_vector(self):
        cfg = DirectoryConfig("FULLBIT", 36, DIR_BYTES)
        assert cfg.entry_bits() == 2 + 6 + 36

    def test_wider_entries_mean_fewer_cached(self):
        full = DirectoryConfig("FULLBIT", 64, DIR_BYTES)
        lpd = DirectoryConfig("LPD", 64, DIR_BYTES, pointers=4)
        assert full.entry_bits() > lpd.entry_bits()
        assert full.entries_per_node() < lpd.entries_per_node()

    def test_entry_gap_grows_with_cores(self):
        # The full vector grows O(N); LPD pointers grow O(log N).
        def ratio(n):
            full = DirectoryConfig("FULLBIT", n, DIR_BYTES)
            lpd = DirectoryConfig("LPD", n, DIR_BYTES, pointers=4)
            return full.entry_bits() / lpd.entry_bits()

        assert ratio(256) > ratio(64) > ratio(16)


class TestFullbitCoherence:
    def test_read_then_write(self):
        system = small_system([
            Trace([TraceOp("R", ADDR, 1)]),
            Trace([TraceOp("R", ADDR, 1), TraceOp("W", ADDR, 400)]),
        ])
        run_done(system)
        assert system.l2s[0].state_of(ADDR) is State.I
        assert system.l2s[1].state_of(ADDR) is State.M

    def test_never_overflows(self):
        # All eight other cores share a line, then one writes: the full
        # vector invalidates each sharer individually, never broadcasts.
        readers = [Trace([TraceOp("R", ADDR, 1)]) for _ in range(8)]
        writer = [Trace([TraceOp("W", ADDR, 2500)])]
        system = small_system(readers + writer)
        run_done(system, 80_000)
        assert system.stats.counter("dir.pointer_overflows") == 0
        assert system.stats.counter("dir.lpd_broadcasts") == 0
        assert system.l2s[8].state_of(ADDR) is State.M
        for node in range(8):
            assert system.l2s[node].state_of(ADDR) is State.I

    def test_invalidates_exactly_the_sharers(self):
        readers = [Trace([TraceOp("R", ADDR, 1)]) for _ in range(3)]
        writer = [Trace([TraceOp("W", ADDR, 2000)])]
        system = small_system(readers + writer)
        run_done(system, 80_000)
        # 2 targeted invalidates (one reader is served by fwd_data).
        invals = system.stats.counter("dir.forwards.invalidate")
        assert 2 <= invals <= 3

    def test_random_soak_completes(self):
        traces = [uniform_random_trace(c, 12, 8, write_fraction=0.5,
                                       think=3, seed=19) for c in range(9)]
        system = small_system(traces)
        run_done(system, 150_000)

    def test_api_protocol_roundtrip(self):
        from repro.core import ChipConfig
        from repro.experiments import benchmark_spec, execute_point
        config = ChipConfig.variant(3, 3)
        result = execute_point(benchmark_spec(
            "fft", "fullbit", config, ops_per_core=10, workload_scale=0.02,
            think_scale=10.0))
        assert result.progress == 1.0
        assert result.protocol == "fullbit"


class TestFullbitVsLpdCapacity:
    def test_fullbit_misses_more_under_pressure(self):
        # Same tiny directory-cache budget: the wide full-bit entries
        # thrash while LPD still fits — the capacity side of the paper's
        # "almost identical" equation.
        config = replace(ChipConfig.variant(3, 3),
                         directory_cache_bytes=1024)
        footprint = [TraceOp("R", ADDR + i * LINE * 9, 6)
                     for i in range(48)]
        misses = {}
        for scheme in ("FULLBIT", "LPD"):
            system = DirectorySystem(
                config, scheme=scheme,
                traces=[Trace(list(footprint))] + [Trace([])] * 8)
            run_done(system, 200_000)
            misses[scheme] = system.stats.counter("dir.cache_misses")
        assert misses["FULLBIT"] >= misses["LPD"]
