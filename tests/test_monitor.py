"""Runtime invariant monitor tests (repro.verification.monitor)."""

import pytest

from repro.core.config import ChipConfig
from repro.cpu.trace import Trace, TraceOp
from repro.systems.directory import DirectorySystem
from repro.systems.scorpio import ScorpioSystem
from repro.verification.monitor import (InvariantViolation, SystemMonitor,
                                        attach_monitor)
from repro.workloads.synthetic import uniform_random_trace

LINE = 32
ADDR = 0x4000_0000


def scorpio(traces=None, width=3, height=3):
    n = width * height
    if traces is not None:
        traces = list(traces) + [Trace([])] * (n - len(traces))
    else:
        traces = [Trace([]) for _ in range(n)]
    return ScorpioSystem(ChipConfig.variant(width, height), traces=traces)


class TestCleanRuns:
    def test_scorpio_random_run_is_clean(self):
        traces = [uniform_random_trace(c, 10, 8, write_fraction=0.5,
                                       think=4, seed=41) for c in range(9)]
        system = scorpio(traces)
        monitor = attach_monitor(system)
        system.run_until_done(150_000)
        assert system.all_cores_finished()
        assert monitor.report.clean
        assert monitor.report.checks_run > 100

    def test_directory_run_is_clean(self):
        traces = [uniform_random_trace(c, 8, 8, write_fraction=0.5,
                                       think=4, seed=43) for c in range(9)]
        system = DirectorySystem(ChipConfig.variant(3, 3), scheme="LPD",
                                 traces=traces)
        monitor = attach_monitor(system, interval=2)
        system.run_until_done(150_000)
        assert system.all_cores_finished()
        assert monitor.report.clean

    def test_sampling_interval_reduces_checks(self):
        system1 = scorpio([Trace([TraceOp("R", ADDR, 1)])])
        m1 = attach_monitor(system1, interval=1)
        system1.run_until_done(50_000)
        system2 = scorpio([Trace([TraceOp("R", ADDR, 1)])])
        m10 = attach_monitor(system2, interval=10)
        system2.run_until_done(50_000)
        assert m10.report.checks_run < m1.report.checks_run

    def test_report_tracks_peaks(self):
        traces = [uniform_random_trace(c, 8, 6, write_fraction=0.5,
                                       think=3, seed=47) for c in range(9)]
        system = scorpio(traces)
        monitor = attach_monitor(system)
        system.run_until_done(150_000)
        assert monitor.report.max_owner_count <= 1
        assert monitor.report.max_router_occupancy >= 0


class TestViolationDetection:
    def test_double_owner_detected(self):
        # Run a write, then forge a second owner by hand: the monitor
        # must notice on the next check.
        from repro.coherence.mosi import State
        system = scorpio([Trace([TraceOp("W", ADDR, 1)])])
        monitor = attach_monitor(system)
        system.run_until_done(50_000)
        victim = system.l2s[5]
        victim.array.fill(ADDR, State.M)
        with pytest.raises(InvariantViolation, match="owned by"):
            monitor.check_single_owner(cycle=0)

    def test_non_strict_collects_instead_of_raising(self):
        from repro.coherence.mosi import State
        system = scorpio([Trace([TraceOp("W", ADDR, 1)])])
        monitor = SystemMonitor(system, strict=False)
        system.run_until_done(50_000)
        system.l2s[5].array.fill(ADDR, State.M)
        monitor.check_single_owner(cycle=0)
        assert not monitor.report.clean
        assert "owned by" in monitor.report.violations[0]

    def test_stall_detection(self):
        # A core with work whose L2 never gets a response: block the
        # NIC's accept gate so nothing completes.
        system = scorpio([Trace([TraceOp("R", ADDR, 1)])])
        monitor = attach_monitor(system, stall_limit=2_000)
        for nic in system.nics:
            nic.accept_gate = lambda: False
        with pytest.raises(InvariantViolation, match="no op completed"):
            system.run_until_done(10_000)

    def test_esid_disagreement_is_caught(self):
        # Two NICs at the same global-order position publishing
        # different expected SIDs; a NIC expecting nothing is skipped.
        system = scorpio()
        a, b, c = system.nics[:3]
        a.esid, b.esid = 2, 5
        monitor = SystemMonitor(system)
        with pytest.raises(InvariantViolation, match="position 0"):
            monitor.check_esid_agreement()
        b.esid = 2
        b.tracker.consumed = 1
        assert c.esid is None
        SystemMonitor(system).check_esid_agreement()

    def test_esid_agreement_check_passes_live(self):
        traces = [uniform_random_trace(c, 8, 6, write_fraction=0.4,
                                       think=3, seed=53) for c in range(9)]
        system = scorpio(traces)
        monitor = attach_monitor(system)
        system.run_until_done(150_000)
        monitor.check_esid_agreement(cycle=0)   # idempotent at rest
        assert monitor.report.clean

    def test_bad_interval_rejected(self):
        system = scorpio()
        with pytest.raises(ValueError):
            SystemMonitor(system, interval=0)
