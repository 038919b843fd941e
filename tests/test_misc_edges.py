"""Focused edge-case tests across small surfaces: engine watchers, CLI
error paths, notification-tracker position counter, packet helpers,
config validation corners and workload scaling."""

import io

import pytest

from repro.noc.config import NocConfig, NotificationConfig
from repro.noc.packet import data_packet_flits
from repro.notification.tracker import NotificationTracker
from repro.sim.engine import Clocked, Engine


class TestEngineWatchers:
    def test_watcher_called_every_cycle(self):
        engine = Engine()
        seen = []
        engine.add_watcher(seen.append)
        engine.run(5)
        assert seen == [1, 2, 3, 4, 5]

    def test_watcher_sees_post_commit_state(self):
        class Counter(Clocked):
            value = 0
            _next = 0

            def step(self, cycle):
                self._next = self.value + 1

            def commit(self, cycle):
                self.value = self._next

        engine = Engine()
        counter = engine.register(Counter())
        observed = []
        engine.add_watcher(lambda cycle: observed.append(counter.value))
        engine.run(3)
        assert observed == [1, 2, 3]


class TestNotificationTrackerPosition:
    def test_consumed_counts_globally(self):
        tracker = NotificationTracker(n_cores=4, bits_per_core=1,
                                      queue_depth=4)
        tracker.push(0b0110)      # cores 1 and 2
        assert tracker.consumed == 0
        tracker.consume_esid()
        tracker.consume_esid()
        assert tracker.consumed == 2
        tracker.push(0b0001)
        tracker.consume_esid()
        assert tracker.consumed == 3

    def test_two_trackers_agree_on_position_semantics(self):
        a = NotificationTracker(4, 1, 4)
        b = NotificationTracker(4, 1, 4)
        for vector in (0b1010, 0b0101):
            a.push(vector)
            b.push(vector)
        # Drain a ahead of b; at equal consumed counts the ESIDs match.
        order_a = []
        while a.current_esid() is not None:
            order_a.append((a.consumed, a.current_esid()))
            a.consume_esid()
        order_b = []
        while b.current_esid() is not None:
            order_b.append((b.consumed, b.current_esid()))
            b.consume_esid()
        assert order_a == order_b


class TestPacketHelpers:
    @pytest.mark.parametrize("cw,flits", [(8, 5), (16, 3), (32, 2)])
    def test_data_flit_counts_match_paper(self, cw, flits):
        assert data_packet_flits(cw, 32) == flits

    def test_rejects_zero_channel(self):
        with pytest.raises(ValueError):
            data_packet_flits(0, 32)


class TestConfigValidation:
    def test_noc_rejects_zero_dimensions(self):
        with pytest.raises(ValueError):
            NocConfig(width=0, height=3)

    def test_noc_rejects_zero_vcs(self):
        with pytest.raises(ValueError):
            NocConfig(goreq_vcs=0)
        with pytest.raises(ValueError):
            NocConfig(goreq_vc_depth=0)

    def test_notification_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            NotificationConfig(bits_per_core=0)

    def test_reserved_vc_index_requires_rvc(self):
        config = NocConfig(reserved_vc=False)
        with pytest.raises(ValueError):
            config.reserved_vc_index()

    def test_max_requests_per_window(self):
        assert NotificationConfig(bits_per_core=1).max_requests_per_window == 1
        assert NotificationConfig(bits_per_core=2).max_requests_per_window == 3

    def test_minimum_window_formula(self):
        assert NotificationConfig.minimum_window(6, 6) == 11
        assert NotificationConfig.minimum_window(10, 10) == 19


class TestCliErrorPaths:
    def test_unknown_benchmark_raises(self):
        """...no traceback: the document the verb builds does not
        validate, which is an error line and exit 2."""
        from repro.cli import main
        out = io.StringIO()
        code = main(["run", "quake3", "--mesh", "3x3", "--ops", "5"],
                    out=out)
        assert code == 2
        assert out.getvalue().startswith("error:")
        assert "unknown benchmark 'quake3'" in out.getvalue()

    def test_run_exit_code_reflects_progress(self):
        from repro.cli import main
        out = io.StringIO()
        # A max-cycles budget too small to finish -> nonzero exit.
        code = main(["run", "fft", "--mesh", "3x3", "--ops", "50",
                     "--scale", "0.02", "--think-scale", "10",
                     "--max-cycles", "50"], out=out)
        assert code == 1


class TestWorkloadScaling:
    def test_scaled_shrinks_footprint_and_stretches_think(self):
        from repro.workloads.suites import profile
        from repro.workloads.synthetic import scaled
        base = profile("barnes")
        small = scaled(base, 0.1, 3.0)
        assert small.private_lines < base.private_lines
        assert small.think_mean > base.think_mean

    def test_generate_system_traces_deterministic(self):
        from repro.workloads.suites import profile
        from repro.workloads.synthetic import generate_system_traces
        a = generate_system_traces(profile("lu"), 4, 10, seed=5)
        b = generate_system_traces(profile("lu"), 4, 10, seed=5)
        assert [list(t) for t in a] == [list(t) for t in b]

    def test_unknown_profile_lists_known(self):
        from repro.workloads.suites import profile
        with pytest.raises(KeyError, match="known"):
            profile("doom")


class TestApiSurfaces:
    def test_run_benchmark_accepts_profile_object(self):
        from repro.core import ChipConfig
        from repro.core.api import run_benchmark
        from repro.workloads.synthetic import WorkloadProfile
        profile = WorkloadProfile(name="custom", read_fraction=0.7,
                                  shared_fraction=0.2,
                                  shared_write_fraction=0.3,
                                  private_lines=40, shared_lines=10,
                                  hot_fraction=0.2, think_mean=8)
        result = run_benchmark(profile, protocol="scorpio",
                               config=ChipConfig.variant(3, 3),
                               ops_per_core=8)
        assert result.benchmark == "custom"
        assert result.progress == 1.0

    def test_unknown_protocol_rejected(self):
        from repro.core.api import build_system
        import pytest as _pytest
        with _pytest.raises(ValueError, match="unknown protocol"):
            build_system("moesi", traces=None)

    def test_normalized_runtimes_zero_baseline_rejected(self):
        from repro.core.api import RunResult, normalized_runtimes
        import pytest as _pytest
        results = {"lpd": RunResult("lpd", "x", 9, 0, 0, 1.0)}
        with _pytest.raises(ValueError, match="zero"):
            normalized_runtimes(results, baseline="lpd")

    def test_breakdown_filters_by_served_kind(self):
        from repro.core import ChipConfig
        from repro.core.api import run_benchmark
        result = run_benchmark("fft", protocol="scorpio",
                               config=ChipConfig.variant(3, 3),
                               ops_per_core=12, workload_scale=0.02,
                               think_scale=10.0)
        cache = result.breakdown("cache")
        memory = result.breakdown("memory")
        assert "mem_access" in memory
        assert "mem_access" not in cache
