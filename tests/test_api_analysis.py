"""Tests for the high-level API and the analysis models."""

import pytest

from repro.analysis.area_power import (PAPER_TILE_POWER_PCT, aggregate,
                                       paper_tile_budget, tile_budget)
from repro.analysis.comparison import TABLE2, as_rows, scorpio_row
from repro.analysis.latency import (CACHE_SERVED_CATEGORIES, breakdown_row,
                                    format_stack, served_fraction,
                                    total_latency)
from repro.core import (ChipConfig, PROTOCOLS, RunResult, build_system,
                        normalized_runtimes)
from repro.core.config import CHIP_FEATURES
from repro.experiments import benchmark_spec, execute_point


class TestChipConfig:
    def test_table1_defaults(self):
        config = ChipConfig.chip_36core()
        assert config.n_cores == 36
        assert config.notification.window == 13

    def test_variants(self):
        assert ChipConfig.chip_64core().n_cores == 64
        assert ChipConfig.chip_100core().n_cores == 100
        assert ChipConfig.chip_64core().noc.goreq_vcs == 16
        assert ChipConfig.chip_100core().noc.goreq_vcs == 50

    def test_variant_window_respects_bound(self):
        config = ChipConfig.chip_100core()
        assert config.notification.window >= 19

    def test_sweep_helpers(self):
        base = ChipConfig.chip_36core()
        assert base.with_channel_width(8).noc.channel_width_bytes == 8
        assert base.with_goreq_vcs(6).noc.goreq_vcs == 6
        assert base.with_uoresp_vcs(4).noc.uoresp_vcs == 4
        assert base.with_notification_bits(2).notification.bits_per_core == 2
        non_pl = base.with_pipelining(False)
        assert not non_pl.noc.nic_pipelined
        assert not non_pl.cache.l2_pipelined
        # Originals untouched (dataclasses.replace semantics).
        assert base.noc.channel_width_bytes == 16

    def test_chip_features_table(self):
        assert CHIP_FEATURES["topology"] == "6x6 mesh"
        assert "MOSI" in CHIP_FEATURES["coherence"]


class TestRunBenchmark:
    @pytest.fixture(scope="class")
    def result(self):
        config = ChipConfig.variant(3, 3)
        return execute_point(benchmark_spec(
            "lu", "scorpio", config, ops_per_core=20, workload_scale=0.02,
            think_scale=10.0))

    def test_completes(self, result):
        assert result.progress == 1.0
        assert result.runtime > 0
        assert result.completed_ops == 9 * 20

    def test_latency_accessors(self, result):
        assert result.avg_l2_service_latency > 0
        breakdown = result.breakdown("cache")
        assert isinstance(breakdown, dict)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            build_system("mesi", None)

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            execute_point(benchmark_spec("quake", "scorpio"))

    def test_protocol_list(self):
        assert set(PROTOCOLS) == {"scorpio", "lpd", "ht", "fullbit"}

    def test_normalized_runtimes(self):
        results = {
            "lpd": RunResult("lpd", "x", 9, 1000, 0, 1.0),
            "scorpio": RunResult("scorpio", "x", 9, 800, 0, 1.0),
        }
        normalized = normalized_runtimes(results, baseline="lpd")
        assert normalized["lpd"] == 1.0
        assert normalized["scorpio"] == 0.8


class TestAreaPowerModel:
    def test_paper_budget_verbatim(self):
        budget = paper_tile_budget()
        assert budget.power_pct == PAPER_TILE_POWER_PCT
        assert budget.tile_power_mw == 768.0

    def test_fabricated_config_calibrated(self):
        budget = tile_budget(ChipConfig.chip_36core())
        assert abs(budget.power_pct["nic_router"] - 19.0) < 1.0
        assert abs(sum(budget.power_pct.values()) - 100.0) < 0.01
        assert abs(sum(budget.area_pct.values()) - 100.0) < 0.01

    def test_wider_channels_cost_more(self):
        base = ChipConfig.chip_36core()
        wide = tile_budget(base.with_channel_width(32))
        assert wide.tile_power_mw > tile_budget(base).tile_power_mw

    def test_aggregate_groups(self):
        budget = paper_tile_budget()
        groups = aggregate(budget, {"core": ("core",),
                                    "l1": ("l1_data", "l1_inst")})
        assert groups["core"] == 54.0
        assert groups["l1"] == 8.0


class TestComparisonTable:
    def test_six_processors(self):
        assert len(TABLE2) == 6

    def test_scorpio_row_fields(self):
        row = scorpio_row()
        assert row.coherency == "Snoopy"
        assert row.consistency == "Sequential consistency"

    def test_as_rows_shape(self):
        rows = as_rows(["isa", "coherency"])
        assert len(rows["isa"]) == 6


class TestLatencyHelpers:
    def _result(self):
        stats = {
            "l2.breakdown.cache.bcast_net.mean": 20.0,
            "l2.breakdown.cache.ordering.mean": 10.0,
            "l2.breakdown.cache.sharer_access.mean": 10.0,
            "l2.breakdown.cache.net_resp.mean": 12.0,
            "l2.miss_latency.cache.count": 90.0,
            "l2.miss_latency.memory.count": 10.0,
        }
        return RunResult("scorpio", "x", 36, 1000, 100, 1.0, stats)

    def test_breakdown_row_covers_categories(self):
        row = breakdown_row(self._result(), "cache")
        assert set(row) == set(CACHE_SERVED_CATEGORIES)
        assert row["bcast_net"] == 20.0
        assert row["dir_access"] == 0.0

    def test_total(self):
        assert total_latency(breakdown_row(self._result(), "cache")) == 52.0

    def test_format_stack_prints_all_rows(self):
        row = breakdown_row(self._result(), "cache")
        text = format_stack({"SCORPIO-D": row}, "cache")
        assert "SCORPIO-D" in text and "52.0" in text

    def test_served_fraction(self):
        fractions = served_fraction(self._result())
        assert fractions["cache"] == pytest.approx(0.9)
        assert fractions["memory"] == pytest.approx(0.1)
