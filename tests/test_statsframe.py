"""StatsFrame queries and the bounded-reservoir Histogram."""

import json

import pytest

from repro.sim.stats import DEFAULT_SAMPLE_CAP, Histogram, StatsRegistry
from repro.sim.statsframe import StatsFrame

SNAPSHOT = {
    "noc.flits.transmitted": 120.0,
    "nic.requests_sent": 30.0,
    "l2.miss_latency.mean": 52.0,
    "l2.miss_latency.count": 90.0,
    "l2.breakdown.cache.bcast_net.mean": 20.0,
    "l2.breakdown.cache.bcast_net.count": 90.0,
    "l2.breakdown.cache.ordering.mean": 10.0,
    "l2.breakdown.cache.ordering.count": 90.0,
    "meshes.active": 2.0,
}


@pytest.fixture
def frame():
    return StatsFrame(SNAPSHOT)


class TestStatsFrame:
    def test_exact_lookup_returns_float(self, frame):
        assert frame["noc.flits.transmitted"] == 120.0
        with pytest.raises(KeyError):
            frame["noc.flits.dropped"]

    def test_value_with_default(self, frame):
        assert frame.value("nic.requests_sent") == 30.0
        assert frame.value("missing", 7.0) == 7.0

    def test_wildcard_indexing_returns_subframe(self, frame):
        sub = frame["l2.breakdown.cache.*"]
        assert isinstance(sub, StatsFrame)
        assert sub.mean == {"l2.breakdown.cache.bcast_net": 20.0,
                            "l2.breakdown.cache.ordering": 10.0}

    def test_select_by_stem_brings_the_pair(self, frame):
        sub = frame.select("l2.miss_latency")
        assert set(sub) == {"l2.miss_latency.mean",
                            "l2.miss_latency.count"}

    def test_relative_to_strips_prefix(self, frame):
        sub = frame.relative_to("l2.breakdown.cache.")
        assert sub.mean == {"bcast_net": 20.0, "ordering": 10.0}
        assert sub.count == {"bcast_net": 90.0, "ordering": 90.0}

    def test_mean_is_suffix_based_for_partial_snapshots(self):
        partial = StatsFrame({"x.mean": 5.0})
        assert partial.mean == {"x": 5.0}
        assert partial.count == {}

    def test_scalars_exclude_histogram_pairs(self, frame):
        assert frame.scalars == {"noc.flits.transmitted": 120.0,
                                 "nic.requests_sent": 30.0,
                                 "meshes.active": 2.0}

    def test_groups(self, frame):
        groups = frame.groups()
        assert set(groups) == {"noc", "nic", "l2", "meshes"}
        assert groups["l2"].value("l2.miss_latency.mean") == 52.0

    def test_mapping_protocol(self, frame):
        assert len(frame) == len(SNAPSHOT)
        assert list(frame) == sorted(SNAPSHOT)
        assert "meshes.active" in frame
        assert dict(frame) == SNAPSHOT

    def test_total(self, frame):
        assert frame.select("l2.breakdown.cache.*.mean").total() == 30.0

    def test_to_json_is_stable(self, frame):
        text = frame.to_json()
        assert text == StatsFrame(dict(reversed(list(
            SNAPSHOT.items())))).to_json()
        assert json.loads(text) == SNAPSHOT

    def test_table_renders_histograms_once(self, frame):
        text = frame.table(title="t")
        assert text.startswith("t")
        assert "l2.miss_latency " in text or "l2.miss_latency  " in text
        assert "mean 52.00 (n=90)" in text

    def test_from_registry_and_registry_frame(self):
        registry = StatsRegistry()
        registry.incr("hits", 3)
        registry.observe("lat", 10.0)
        frame = registry.frame()
        assert frame["hits"] == 3.0
        assert frame.mean == {"lat": 10.0}
        assert StatsFrame.from_registry(registry).to_dict() == \
            frame.to_dict()


class TestHistogramReservoir:
    def test_summary_exact_beyond_cap(self):
        hist = Histogram(cap=16)
        for value in range(1000):
            hist.add(float(value))
        assert hist.count == 1000
        assert hist.total == sum(range(1000))
        assert hist.mean == pytest.approx(499.5)
        assert hist.minimum == 0.0 and hist.maximum == 999.0
        assert len(hist.samples()) == 16

    def test_reservoir_is_deterministic(self):
        def build():
            hist = Histogram(cap=8)
            for value in range(500):
                hist.add(float(value))
            return hist.samples()

        assert build() == build()

    def test_exact_below_cap(self):
        hist = Histogram(cap=100)
        for value in (5.0, 1.0, 9.0):
            hist.add(value)
        assert sorted(hist.samples()) == [1.0, 5.0, 9.0]
        assert hist.percentile(50) == 5.0

    def test_cap_zero_is_unbounded(self):
        hist = Histogram(cap=0)
        for value in range(DEFAULT_SAMPLE_CAP + 100):
            hist.add(float(value))
        assert len(hist.samples()) == DEFAULT_SAMPLE_CAP + 100

    def test_default_cap_applies(self):
        hist = Histogram()
        for value in range(DEFAULT_SAMPLE_CAP + 500):
            hist.add(float(value))
        assert len(hist.samples()) == DEFAULT_SAMPLE_CAP
        assert hist.count == DEFAULT_SAMPLE_CAP + 500

    def test_percentile_approximation_stays_in_range(self):
        hist = Histogram(cap=64)
        for value in range(10_000):
            hist.add(float(value))
        p50 = hist.percentile(50)
        assert 0.0 <= p50 <= 9999.0
        # A uniform reservoir's median lands well inside the bulk.
        assert 1000.0 < p50 < 9000.0

    def test_snapshot_mean_count_unaffected_by_cap(self):
        capped, unbounded = StatsRegistry(), StatsRegistry()
        capped.histograms["x"] = Histogram(cap=4)
        unbounded.histograms["x"] = Histogram(cap=0)
        for value in range(100):
            capped.observe("x", float(value))
            unbounded.observe("x", float(value))
        assert capped.snapshot() == unbounded.snapshot()
