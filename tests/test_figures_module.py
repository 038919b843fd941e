"""Figure-registry tests (repro.analysis.figures)."""

import pytest

from repro.analysis.figures import (FIGURES, FULL, QUICK, figure_ids,
                                    generate, render)
from repro.experiments import plan_points


def verdicts(rendered):
    return {claim.name: claim.verdict for claim in rendered.claims}


class TestRegistry:
    def test_every_paper_artifact_covered(self):
        ids = figure_ids()
        for required in ("table1", "table2", "fig6a", "fig6b", "fig6c",
                         "fig7", "fig8a", "fig8b", "fig8c", "fig8d",
                         "fig9", "fig10"):
            assert required in ids

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError, match="unknown figure"):
            generate("fig0")

    @pytest.mark.parametrize("fig_id", figure_ids())
    def test_full_regime_is_well_formed(self, fig_id):
        """What the slow harness will run, checked in seconds: the FULL
        points build and fingerprint as distinct points (nothing
        simulates), and every claim has a name of its own, a predicate
        and a paper value that resolved to a number (or to None, for a
        shape the paper states without one)."""
        figure = FIGURES[fig_id]
        specs = figure.points(FULL, 0)
        assert len(plan_points(specs).pending) == len(specs)
        assert bool(specs) == bool(figure.points(QUICK, 0))
        names = [claim.name for claim in figure.claims]
        assert len(names) == len(set(names))
        for claim in figure.claims:
            assert callable(claim.holds) and claim.shape
            assert claim.paper is None \
                or isinstance(claim.paper, (int, float))


class TestStaticFigures:
    def test_table1(self):
        text = generate("table1")
        assert "6x6 mesh" in text
        assert "833 MHz" in text

    def test_table2(self):
        text = generate("table2")
        assert "SCORPIO" in text
        assert "Sequential consistency" in text

    def test_fig9(self):
        text = generate("fig9")
        assert "nic_router" in text
        assert "19.0" in text        # the NIC+router power slice
        assert "28.8" in text        # chip watts

    @pytest.mark.parametrize("fig_id", ["table1", "table2", "fig9"])
    def test_static_claims_hold_in_any_regime(self, fig_id):
        rendered = render(fig_id)
        assert len(rendered.claims) == len(FIGURES[fig_id].claims) > 0
        assert all(verdicts(rendered).values())
        assert "holds" in rendered.scorecard()


class TestSimulatedFigures:
    """Quick-regime smoke runs of the simulation-backed figures."""

    def test_fig8d_notification_sweep(self, figure_cache):
        rendered = render("fig8d", cache=figure_cache)
        assert "bits" in rendered.text
        assert rendered.measured["bits=1"] == 1.0    # the fabricated point
        assert verdicts(rendered) == {"bits=2": True, "bits=3": True}

    def test_fig10_pipelining(self, figure_cache):
        rendered = render("fig10", cache=figure_cache)
        # Pipelining must not raise service latency on any row (every
        # benchmark of both quick meshes) and must lower each mesh's
        # average; the 6x6 one is also the paper's 36-core claim.
        for cores in (16, 36):
            assert rendered.measured[f"gain.min@{cores}"] >= 0.0
            assert rendered.measured[f"gain@{cores}"] > 0.0
        assert verdicts(rendered) == {"gain@36": True, "pl@36": True}

    def test_fig6a_protocol_ordering(self, figure_cache):
        rendered = render("fig6a", cache=figure_cache)
        # The quick 4x4 leg is not one the paper makes claims about.
        assert rendered.claims == []
        assert rendered.measured["scorpio_vs_lpd@16"] < 1.0

    @pytest.mark.parametrize("fig_id", ["fig6b", "fig6c"])
    def test_fig6_breakdowns(self, fig_id, figure_cache):
        """Same points as quick fig6a (the session cache answers them);
        a single leg, so every claim is judged — and holds on 4x4 too."""
        judged = verdicts(render(fig_id, cache=figure_cache))
        assert len(judged) == len(FIGURES[fig_id].claims)
        assert all(judged.values())

    @pytest.mark.parametrize("fig_id, fabricated", [
        ("fig8a", "CW(B)=16"), ("fig8b", "VCs=4"),
        ("fig8c", "(CW,VC)=(16, 2)")])
    def test_fig8_claims_read_the_fabricated_point(self, fig_id, fabricated,
                                                   tiny_regime,
                                                   figure_cache):
        rendered = render(fig_id, tiny_regime, cache=figure_cache)
        assert rendered.measured[fabricated] == 1.0
        assert len(rendered.claims) == len(FIGURES[fig_id].claims)


class TestExtraFigures:
    def test_locks_figure(self, figure_cache):
        rendered = render("locks", cache=figure_cache)
        assert "SCORPIO" in rendered.text and "LPD-D" in rendered.text
        assert "Lock handoff" in rendered.text
        # The hand-off order holds on the quick 3x3 leg too.
        assert verdicts(rendered) == {"progress.min": True, "SCORPIO": True,
                                      "SCORPIO.vs_ht": True}

    def test_fullbit_figure(self, figure_cache):
        judged = verdicts(render("fullbit", cache=figure_cache))
        # The "almost identical" claim, per benchmark and on average.
        assert judged["ratio"] and judged["ratio.min"] \
            and judged["ratio.max"]
