"""Cross-subsystem integration: monitors on the new baselines, banked
DRAM under directory protocols, trace files through every system, and
CLI litmus — the combinations no single-module test exercises."""

import io
from dataclasses import replace

import pytest

from repro.core.config import ChipConfig
from repro.cpu.trace import Trace, TraceOp
from repro.memory.controller import MemoryConfig
from repro.ordering_baselines.systems import TimestampSystem, UncorqSystem
from repro.systems.directory import DirectorySystem
from repro.systems.scorpio import ScorpioSystem
from repro.verification.monitor import attach_monitor
from repro.workloads.synthetic import uniform_random_trace

LINE = 32
ADDR = 0x4000_0000


def random_traces(n, ops=8, lines=8, seed=71):
    return [uniform_random_trace(c, ops, lines, write_fraction=0.5,
                                 think=4, seed=seed) for c in range(n)]


class TestMonitorOnBaselines:
    def test_timestamp_system_clean_under_monitor(self):
        system = TimestampSystem(ChipConfig.variant(3, 3),
                                 traces=random_traces(9))
        monitor = attach_monitor(system, interval=2)
        system.run_until_done(200_000)
        assert system.all_cores_finished()
        assert monitor.report.clean

    def test_uncorq_system_clean_under_monitor(self):
        system = UncorqSystem(ChipConfig.variant(3, 3),
                              traces=random_traces(9, seed=73))
        monitor = attach_monitor(system, interval=2)
        system.run_until_done(300_000)
        assert system.all_cores_finished()
        assert monitor.report.clean

    def test_incf_ht_clean_under_monitor(self):
        system = DirectorySystem(ChipConfig.variant(3, 3), scheme="HT",
                                 traces=random_traces(9, seed=79),
                                 incf=True)
        monitor = attach_monitor(system, interval=2)
        system.run_until_done(200_000)
        assert system.all_cores_finished()
        assert monitor.report.clean


class TestBankedDramAcrossProtocols:
    @pytest.mark.parametrize("scheme", ["LPD", "HT", "FULLBIT"])
    def test_directory_with_banked_dram(self, scheme):
        system = DirectorySystem(
            replace(ChipConfig.variant(3, 3),
                    memory=MemoryConfig(banked=True)),
            scheme=scheme, traces=random_traces(9, seed=83))
        system.run_until_done(200_000)
        assert system.all_cores_finished()
        accesses = sum(v for k, v in system.stats.counters.items()
                       if ".row_" in k)
        assert accesses > 0

    def test_banked_latency_distribution_wider_than_fixed(self):
        def spread(banked):
            traces = random_traces(9, ops=10, lines=24, seed=89)
            system = ScorpioSystem(
                replace(ChipConfig.variant(3, 3),
                        memory=MemoryConfig(banked=banked)),
                traces=traces)
            system.run_until_done(200_000)
            assert system.all_cores_finished()
            hist = system.stats.histograms.get("l2.miss_latency.memory")
            if hist is None or not hist.count:
                return 0.0
            return (hist.maximum or 0) - (hist.minimum or 0)

        # Fixed-latency DRAM has a narrow memory-served band; banked
        # timing spreads it (hits vs conflicts vs bus queueing).
        assert spread(True) >= spread(False)


class TestTraceFilesThroughEverySystem:
    def test_one_trace_file_runs_everywhere(self, tmp_path):
        from repro.core import ChipConfig
        from repro.core.api import run_trace_file
        from repro.cpu.tracefile import dump_traces

        config = ChipConfig.variant(3, 3)
        traces = random_traces(9, seed=97)
        path = tmp_path / "shared.trace"
        dump_traces(traces, path)
        ops = sum(len(t) for t in traces)
        for protocol in ("scorpio", "lpd", "ht", "fullbit"):
            result = run_trace_file(path, protocol=protocol, config=config)
            assert result.progress == 1.0, protocol
            assert result.completed_ops == ops, protocol


class TestCliLitmus:
    def test_litmus_command_passes(self):
        from repro.cli import main
        out = io.StringIO()
        code = main(["litmus"], out=out)
        assert code == 0
        verdicts = [line.split() for line in out.getvalue().splitlines()
                    if line.startswith("litmus ")]
        assert len(verdicts) == 5
        assert all(verdict[-1] == "ok" for verdict in verdicts)


class TestOrderingAgreementAcrossOrderedSystems:
    @pytest.mark.parametrize("builder", [
        lambda t: ScorpioSystem(ChipConfig.variant(3, 3), traces=t),
        lambda t: TimestampSystem(ChipConfig.variant(3, 3), traces=t),
    ], ids=["scorpio", "timestamp"])
    def test_every_node_sees_identical_request_stream(self, builder):
        system = builder(random_traces(9, seed=101))
        logs = {n: [] for n in range(9)}
        for node, nic in enumerate(system.nics):
            nic.add_request_listener(
                (lambda k: (lambda p, sid, c, a:
                            logs[k].append((sid, p.req_id))))(node))
        system.run_until_done(200_000)
        assert system.all_cores_finished()
        reference = logs[0]
        assert reference, "no requests observed"
        for node in range(1, 9):
            assert logs[node] == reference
