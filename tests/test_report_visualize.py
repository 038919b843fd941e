"""``build_report``: the figure report directory and its index."""

import pytest

from repro.analysis.report import DEFAULT_FIGURES, build_report


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
