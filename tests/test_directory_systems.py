"""Directory-baseline tests: LPD/HT end-to-end plus directory-controller
unit behaviour (pointer overflow, cache misses, entry geometry)."""

from dataclasses import replace

import pytest

from repro.coherence.directory import DirectoryConfig, DirEntry
from repro.coherence.mosi import State
from repro.core.config import ChipConfig
from repro.cpu.trace import Trace, TraceOp
from repro.systems.directory import DirectorySystem
from repro.workloads.synthetic import uniform_random_trace

LINE = 32
ADDR = 0x4000_0000
DIR_BYTES = ChipConfig().directory_cache_bytes


def small_system(scheme, traces=None, width=3, height=3, **kwargs):
    config = ChipConfig.variant(width, height)
    if traces is not None:
        traces = list(traces) + [Trace([])] * (width * height - len(traces))
    return DirectorySystem(config, scheme=scheme, traces=traces, **kwargs)


def run_done(system, max_cycles=40_000):
    system.run_until_done(max_cycles)
    assert system.all_cores_finished(), "cores did not finish"
    return system.engine.cycle


class TestDirectoryConfig:
    def test_entry_bits(self):
        assert DirectoryConfig("HT", 36, DIR_BYTES).entry_bits() == 2
        lpd = DirectoryConfig("LPD", 36, DIR_BYTES, pointers=4)
        assert lpd.entry_bits() == 2 + 6 + 24 + 1

    def test_ht_gets_many_more_entries(self):
        ht = DirectoryConfig("HT", 36, DIR_BYTES)
        lpd = DirectoryConfig("LPD", 36, DIR_BYTES)
        assert ht.entries_per_node() > 4 * lpd.entries_per_node()

    def test_bad_scheme_rejected(self):
        with pytest.raises(ValueError):
            DirectorySystem(ChipConfig.variant(3, 3), scheme="MOESI")


@pytest.mark.parametrize("scheme", ["LPD", "HT"])
class TestDirectoryCoherence:
    def test_read_then_write(self, scheme):
        system = small_system(scheme, [
            Trace([TraceOp("R", ADDR, 1)]),
            Trace([TraceOp("R", ADDR, 1), TraceOp("W", ADDR, 400)]),
        ])
        run_done(system)
        assert system.l2s[0].state_of(ADDR) is State.I
        assert system.l2s[1].state_of(ADDR) is State.M

    def test_dirty_data_forwarded_on_chip(self, scheme):
        system = small_system(scheme, [
            Trace([TraceOp("W", ADDR, 1)]),
            Trace([TraceOp("R", ADDR, 500)]),
        ])
        run_done(system)
        assert system.l2s[1].state_of(ADDR) is State.S
        assert system.stats.counter("l2.data_forwards") >= 1

    def test_concurrent_writers_converge(self, scheme):
        system = small_system(
            scheme, [Trace([TraceOp("W", ADDR, 1)]) for _ in range(9)])
        run_done(system, 80_000)
        owners = [l2.node for l2 in system.l2s
                  if l2.state_of(ADDR).is_owner]
        assert len(owners) == 1

    def test_random_soak_completes(self, scheme):
        traces = [uniform_random_trace(c, 12, 8, write_fraction=0.5,
                                       think=3, seed=11) for c in range(9)]
        system = small_system(scheme, traces)
        run_done(system, 150_000)

    def test_upgrade_from_owner(self, scheme):
        # Write, get read (owner -> O), then write again (upgrade).
        system = small_system(scheme, [
            Trace([TraceOp("W", ADDR, 1), TraceOp("W", ADDR, 900)]),
            Trace([TraceOp("R", ADDR, 400)]),
        ])
        run_done(system)
        assert system.l2s[0].state_of(ADDR) is State.M
        assert system.l2s[1].state_of(ADDR) is State.I


class TestLpdSpecifics:
    def test_pointer_overflow_broadcasts(self):
        # More sharers (8) than pointers (4) -> overflow -> GETX
        # broadcast.
        readers = [Trace([TraceOp("R", ADDR, 1)]) for _ in range(8)]
        writer = [Trace([TraceOp("W", ADDR, 2000)])]
        system = DirectorySystem(ChipConfig.variant(3, 3), scheme="LPD",
                                 traces=readers + writer)
        run_done(system, 60_000)
        assert system.stats.counter("dir.pointer_overflows") >= 1
        assert system.stats.counter("dir.lpd_broadcasts") >= 1
        assert system.l2s[8].state_of(ADDR) is State.M
        for node in range(8):
            assert system.l2s[node].state_of(ADDR) is State.I

    def test_directory_cache_miss_penalty_counted(self):
        config = replace(ChipConfig.variant(3, 3),
                         directory_cache_bytes=128)   # tiny: thrash
        ops = [TraceOp("R", ADDR + i * LINE * 9, 10) for i in range(24)]
        system = DirectorySystem(
            config, scheme="LPD", traces=[Trace(ops)] + [Trace([])] * 8)
        run_done(system, 120_000)
        assert system.stats.counter("dir.cache_misses") > 0


class TestHtSpecifics:
    def test_every_request_broadcast(self):
        system = small_system("HT", [
            Trace([TraceOp("R", ADDR, 1)]),
            Trace([TraceOp("R", ADDR + LINE, 1)]),
        ])
        run_done(system)
        assert system.stats.counter("dir.ht_broadcasts") == 2

    def test_ht_entry_tracks_ownership_bit(self):
        entry = DirEntry()
        assert not entry.overflow   # memory owns initially
