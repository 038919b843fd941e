"""Cross-subsystem integration: monitors on the new baselines, trace
files through every system, and CLI litmus — the combinations no
single-module test exercises."""

import io

import pytest

from repro.core.config import ChipConfig
from repro.cpu.trace import Trace, TraceOp
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


class TestTraceFilesThroughEverySystem:
    def test_one_trace_file_runs_everywhere(self, tmp_path):
        from repro.core import ChipConfig
        from repro.core.api import builder_of
        from repro.cpu.tracefile import dump_traces
        from repro.experiments import SystemSpec, execute_point

        config = ChipConfig.variant(3, 3)
        traces = random_traces(9, seed=97)
        path = tmp_path / "shared.trace"
        dump_traces(traces, path)
        ops = sum(len(t) for t in traces)
        for protocol in ("scorpio", "lpd", "ht", "fullbit"):
            builder, params = builder_of(protocol)
            result = execute_point(SystemSpec(
                builder, config, params=params,
                workload={"kind": "trace", "path": str(path)},
                protocol=protocol))
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
