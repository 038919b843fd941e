"""Every table and figure of the evaluation, in the full regime.

One parametrised harness over the figure registry
(:mod:`repro.analysis.figures`): each id's points run as one
``run_sweep`` batch in the ``FULL`` regime, the table prints with a
paper / measured / shape / verdict line per claim, and every claim must
hold — and must have been measured: ``FULL`` runs every leg a claim
reads.  What each claim says, and the paper's number behind it, is in
the registry, next to the sweep it is about.
"""

import pytest

from repro.analysis.figures import FIGURES, FULL, figure_ids, render

from conftest import run_once


@pytest.mark.parametrize("fig_id", figure_ids())
def test_figure(benchmark, fig_id):
    rendered = run_once(benchmark, lambda: render(fig_id, FULL))

    print("\n" + rendered.text)
    print(rendered.scorecard(f"{fig_id}: paper vs measured ({FULL.name} "
                             f"regime)"))

    assert [claim.name for claim in rendered.claims] \
        == [claim.name for claim in FIGURES[fig_id].claims], \
        "the full regime must measure every claim"
    violated = [claim.name for claim in rendered.claims
                if not claim.verdict]
    assert not violated, f"{fig_id}: claims violated: {violated}"
