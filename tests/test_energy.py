"""Activity-based energy model tests (repro.analysis.energy)."""

import pytest

from repro.analysis.energy import (NIC_ROUTER_POWER_MW, EnergyModel,
                                   EnergyParams, EnergyReport)
from repro.core import ChipConfig
from repro.experiments import benchmark_spec, execute_point


def small_run(**overrides):
    config = ChipConfig.variant(3, 3)
    return config, execute_point(benchmark_spec(
        "fft", "scorpio", config, ops_per_core=20, workload_scale=0.02,
        think_scale=10.0, **overrides))


class TestEnergyAccounting:
    def test_empty_run_has_no_dynamic_energy(self):
        model = EnergyModel(ChipConfig.chip_36core())
        report = model.report({}, cycles=1000)
        assert report.total_dynamic_nj == 0.0
        assert report.total_static_nj > 0.0

    def test_zero_cycles(self):
        model = EnergyModel(ChipConfig.chip_36core())
        report = model.report({}, cycles=0)
        assert report.total_nj == 0.0
        assert report.average_power_mw() == 0.0

    def test_negative_cycles_rejected(self):
        model = EnergyModel()
        with pytest.raises(ValueError):
            model.report({}, cycles=-1)

    def test_real_run_produces_all_slices(self):
        config, result = small_run()
        model = EnergyModel(config)
        report = model.report(result.stats, result.runtime)
        for slice_name in ("buffers", "crossbar", "links", "notification",
                           "nic"):
            assert report.dynamic_nj[slice_name] > 0.0, slice_name
        assert report.total_static_nj > 0.0
        assert report.average_power_mw() > 0.0

    def test_static_dominates_at_light_load(self):
        # Sec. 5.4: "most of the power is consumed at clocking ... the
        # breakdown is not sensitive to workload."
        config, result = small_run()
        model = EnergyModel(config)
        report = model.report(result.stats, result.runtime)
        assert report.dynamic_fraction() < 0.35

    def test_per_tile_power_near_figure9_slice(self):
        # At realistic load the per-tile uncore power lands within a
        # factor-of-2 band of the chip's 146 mW NIC+router slice.
        config, result = small_run()
        model = EnergyModel(config)
        report = model.report(result.stats, result.runtime)
        per_tile = report.per_tile_power_mw()
        assert 0.5 * NIC_ROUTER_POWER_MW < per_tile \
            < 2.0 * NIC_ROUTER_POWER_MW

    def test_more_traffic_more_dynamic_energy(self):
        config = ChipConfig.variant(3, 3)
        model = EnergyModel(config)
        reports = {}
        for ops in (10, 60):
            result = execute_point(benchmark_spec(
                "fft", "scorpio", config, ops_per_core=ops,
                workload_scale=0.02, think_scale=10.0))
            reports[ops] = model.report(result.stats, result.runtime)
        assert reports[60].total_dynamic_nj > reports[10].total_dynamic_nj

    def test_bypass_savings_counted(self):
        config, result = small_run()
        model = EnergyModel(config)
        savings = model.bypass_savings_nj(result.stats)
        assert savings > 0.0
        p = model.params
        expected = result.stats["noc.router.bypassed"] \
            * (p.buffer_write_pj + p.buffer_read_pj) * 1e-3
        assert savings == pytest.approx(expected)


class TestEnergyParams:
    def test_custom_params_scale_linearly(self):
        config, result = small_run()
        base = EnergyModel(config).report(result.stats, result.runtime)
        doubled = EnergyModel(config, EnergyParams(
            buffer_write_pj=6.4, buffer_read_pj=5.6, crossbar_pj=8.2,
            link_pj=11.2, lookahead_pj=0.8, notification_window_pj=3.6,
            nic_event_pj=4.0)).report(result.stats, result.runtime)
        assert doubled.total_dynamic_nj == pytest.approx(
            2 * base.total_dynamic_nj, rel=1e-6)

    def test_report_totals_consistent(self):
        report = EnergyReport(cycles=100, n_tiles=4,
                              dynamic_nj={"a": 1.0, "b": 2.0},
                              static_nj={"c": 3.0})
        assert report.total_nj == pytest.approx(6.0)
        assert report.dynamic_fraction() == pytest.approx(0.5)
