"""Report driver and mesh-visualization tests."""

import pytest

from repro.analysis.report import DEFAULT_FIGURES, build_report
from repro.noc.config import NocConfig
from repro.noc.visualize import (compact_number, hotspot_nodes,
                                 occupancy_map, render_grid,
                                 render_heatmap, traffic_map)


@pytest.mark.usefixtures("cached_figures")
class TestBuildReport:
    def test_default_report(self, tmp_path):
        artifacts = build_report(tmp_path / "results")
        for fig_id in DEFAULT_FIGURES:
            assert artifacts[fig_id].exists()
            assert artifacts[fig_id].read_text().strip()
        index = artifacts["index"].read_text()
        for fig_id in DEFAULT_FIGURES:
            assert fig_id in index

    def test_unknown_figure_rejected_before_work(self, tmp_path):
        with pytest.raises(KeyError, match="fig99"):
            build_report(tmp_path, figures=["table1", "fig99"])
        assert not (tmp_path / "table1.txt").exists()

    def test_creates_nested_directory(self, tmp_path):
        artifacts = build_report(tmp_path / "a" / "b",
                                 figures=["table1"])
        assert artifacts["table1"].exists()

    def test_simulated_figure_in_report(self, tmp_path, tiny_regime):
        artifacts = build_report(tmp_path, figures=["fig8d"],
                                 regime=tiny_regime)
        text = artifacts["fig8d"].read_text()
        assert "1.000" in text
        assert "Regime: quick" in artifacts["index"].read_text()


class TestRenderGrid:
    def test_grid_shape(self):
        config = NocConfig(width=3, height=2)
        values = {n: float(n) for n in range(6)}
        text = render_grid(values, config)
        rows = text.splitlines()
        assert len(rows) == 2
        # North row (nodes 3,4,5) prints first.
        assert "3" in rows[0] and "0" in rows[1]

    def test_missing_nodes_default_zero(self):
        config = NocConfig(width=2, height=2)
        text = render_grid({0: 7.0}, config)
        assert "7" in text

    def test_narrow_cells_rejected(self):
        with pytest.raises(ValueError):
            render_grid({}, NocConfig(width=2, height=2), cell_width=2)

    def test_wide_values_compact_instead_of_truncating(self):
        """12345 used to render as '1234' (silent digit drop); the
        width-aware formatter must shift notation, never truncate."""
        config = NocConfig(width=2, height=1)
        text = render_grid({0: 12345.0, 1: 2.0}, config)  # 4-char cells
        assert "1234" not in text
        assert "1e4" in text
        assert "2" in text

    def test_compact_number_candidates(self):
        assert compact_number(12345.0, 4) == "1e4"
        assert compact_number(12345.0, 6) == "12345"
        assert compact_number(0.0, 4) == "0"
        assert compact_number(-12345.0, 4) == "-1e4"
        assert compact_number(0.25, 4) == "0.25"
        with pytest.raises(ValueError, match="cell_width"):
            compact_number(1e-300, 2)

    def test_unrepresentable_value_raises(self):
        config = NocConfig(width=1, height=1)
        with pytest.raises(ValueError, match="cell_width"):
            render_grid({0: 1.23456e-300}, config, cell_width=3)

    def test_out_of_range_node_ids_raise(self):
        """A mis-sized NocConfig must fail loudly, not render a
        plausible-looking grid with the out-of-mesh nodes dropped."""
        config = NocConfig(width=2, height=2)
        with pytest.raises(ValueError, match=r"\[4\]"):
            render_grid({0: 1.0, 4: 9.0}, config)
        with pytest.raises(ValueError, match="outside"):
            render_heatmap({-1: 3.0}, config)

    def test_overlong_custom_label_raises(self):
        config = NocConfig(width=1, height=1)
        with pytest.raises(ValueError, match="wider than"):
            render_grid({0: 1.0}, config, cell_width=3,
                        label=lambda v: "toolong")


class TestHeatmap:
    def test_peak_gets_darkest_shade(self):
        config = NocConfig(width=2, height=2)
        text = render_heatmap({0: 1.0, 1: 10.0, 2: 0.0, 3: 5.0}, config)
        assert "@" in text
        assert " " in text

    def test_all_zero_renders_blank(self):
        config = NocConfig(width=2, height=2)
        text = render_heatmap({n: 0.0 for n in range(4)}, config)
        assert set(text) <= {" ", "\n"}

    def test_hotspot_nodes(self):
        values = {0: 1.0, 1: 10.0, 2: 6.0, 3: 0.0}
        assert hotspot_nodes(values) == [1, 2]
        assert hotspot_nodes(values, threshold=0.9) == [1]
        assert hotspot_nodes({}) == []


class TestLiveMaps:
    def test_occupancy_map_on_live_system(self):
        from repro.cpu.trace import Trace
        from repro.systems.scorpio import ScorpioSystem
        system = ScorpioSystem(traces=[Trace([]) for _ in range(9)],
                               noc=NocConfig(width=3, height=3))
        system.run(50)
        values = occupancy_map(system.mesh)
        assert set(values) == set(range(9))
        assert all(v == 0.0 for v in values.values())

    def test_traffic_map_after_tester_run(self):
        from repro.noc.tester import NetworkTester, TrafficConfig
        from repro.noc.mesh import Mesh
        from repro.sim.engine import Engine
        from repro.sim.stats import StatsRegistry
        import random
        from repro.noc.tester import NodeTester

        noc = NocConfig(width=3, height=3)
        engine = Engine()
        mesh = Mesh(noc, engine, StatsRegistry())
        testers = []
        traffic = TrafficConfig(pattern="uniform", injection_rate=0.05)
        for node in range(9):
            tester = NodeTester(node, noc, traffic, StatsRegistry(),
                                random.Random(node))
            router = mesh.attach(node, tester)
            tester.attach(router)
            engine.register(tester)
            testers.append(tester)
        engine.run(500)
        values = traffic_map(testers)
        assert sum(values.values()) > 0
        text = render_heatmap(values, noc)
        assert len(text.splitlines()) == 3
