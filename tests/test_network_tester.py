"""Tests for the synthetic-traffic network testers."""

import pytest

from repro.noc.config import NocConfig
from repro.noc.tester import (PATTERNS, NetworkTester, TrafficConfig,
                              TrafficResult)


def small_tester(**overrides):
    return NetworkTester(NocConfig(width=4, height=4, **overrides))


class TestTrafficConfig:
    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError):
            TrafficConfig(pattern="tornado")

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            TrafficConfig(injection_rate=0.0)
        with pytest.raises(ValueError):
            TrafficConfig(injection_rate=1.5)


class TestPatterns:
    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_all_patterns_deliver(self, pattern):
        tester = small_tester()
        result = tester.run(TrafficConfig(pattern=pattern,
                                          injection_rate=0.02), cycles=1200)
        assert result.delivered_packets > 0
        assert result.avg_latency > 0

    def test_broadcast_multiplies_deliveries(self):
        tester = small_tester()
        unicast = tester.run(TrafficConfig(pattern="uniform",
                                           injection_rate=0.02, seed=3),
                             cycles=1500)
        bcast = tester.run(TrafficConfig(pattern="broadcast",
                                         injection_rate=0.02, seed=3),
                           cycles=1500)
        # Every broadcast is delivered ~16x.
        assert bcast.delivered_packets > 5 * unicast.delivered_packets


class TestLoadBehaviour:
    def test_latency_grows_with_load(self):
        tester = small_tester()
        results = tester.latency_curve("uniform", [0.02, 0.25], cycles=1500)
        assert results[1].avg_latency > results[0].avg_latency

    def test_broadcast_saturates_early(self):
        tester = small_tester()
        bound = tester.broadcast_capacity_bound()
        assert bound == pytest.approx(1 / 16)
        # Offer 3x the theoretical broadcast capacity: must saturate.
        heavy = tester.run(TrafficConfig(pattern="broadcast",
                                         injection_rate=3 * bound),
                           cycles=2000)
        assert heavy.saturated
        # Well under the bound: must not saturate.
        light = tester.run(TrafficConfig(pattern="broadcast",
                                         injection_rate=bound / 4),
                           cycles=2000)
        assert not light.saturated

    def test_throughput_tracks_offered_load_when_unsaturated(self):
        tester = small_tester()
        rate = 0.03
        result = tester.run(TrafficConfig(pattern="uniform",
                                          injection_rate=rate), cycles=3000)
        assert result.throughput == pytest.approx(rate, rel=0.35)

    def test_deterministic_given_seed(self):
        tester = small_tester()
        a = tester.run(TrafficConfig(pattern="uniform", injection_rate=0.05,
                                     seed=11), cycles=800)
        b = tester.run(TrafficConfig(pattern="uniform", injection_rate=0.05,
                                     seed=11), cycles=800)
        assert (a.delivered_packets, a.avg_latency) \
            == (b.delivered_packets, b.avg_latency)


class TestResultShape:
    def test_result_fields(self):
        tester = small_tester()
        result = tester.run(TrafficConfig(pattern="uniform",
                                          injection_rate=0.05), cycles=800)
        assert isinstance(result, TrafficResult)
        assert result.p95_latency >= result.avg_latency * 0.5
        assert 0 < result.delivered_packets <= result.offered_packets

