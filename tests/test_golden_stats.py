"""Golden-trace regression suite for every registered system builder.

Each point of ``tests/identity_points.py`` runs once through
``execute_point`` and its cycle count, completed ops and message totals
are compared against the checked-in ``GOLDEN`` table there.  The point
is to make *silent* cycle-level behaviour changes loud: a hot-path
refactor that reorders arbitration, changes a latency, or perturbs trace
generation will move at least one of these numbers.

When a change is *intentional* (a model fix, a new timing parameter),
regenerate the table:

    PYTHONPATH=src python -m pytest tests/test_golden_stats.py --tb=line

then update GOLDEN with the values the failure output reports and say
why in the commit.
"""

import json

import pytest
from identity_points import (GOLDEN, POINTS, at_defaults,
                             default_param_builders, golden_row,
                             payload_bytes)

from repro.experiments import builder_names


def test_every_registered_builder_has_a_golden_case():
    """Registering a new builder must come with a golden lock: every
    builder has a point, every builder whose params all have defaults
    has one at those defaults, and every point has a golden."""
    covered = {spec.builder for spec in POINTS.values()}
    assert covered == set(builder_names()), (
        "builders without a point: "
        f"{sorted(set(builder_names()) - covered)}")
    at_default = {spec.builder for spec in POINTS.values()
                  if at_defaults(spec)}
    assert set(default_param_builders()) <= at_default, (
        "builders without a point at their default params: "
        f"{sorted(set(default_param_builders()) - at_default)}")
    assert sorted(GOLDEN) == sorted(POINTS), (
        f"points without a golden: {sorted(set(POINTS) - set(GOLDEN))}")


@pytest.mark.parametrize("case", sorted(POINTS))
def test_golden_stats(case):
    observed = golden_row(json.loads(payload_bytes(POINTS[case])))
    assert observed == GOLDEN[case], (
        f"cycle-level behaviour changed for {case!r}: golden "
        f"{GOLDEN[case]}, observed {observed}.  If intentional, "
        "regenerate the GOLDEN table (see module docstring).")


def test_litmus_observations_are_stable():
    """The litmus builder's cached payload (observations) is golden too."""
    payload = json.loads(payload_bytes(POINTS["litmus-mp"]))
    assert payload["extra"]["observations"] == [
        [0, 0, "W", "x", 1], [0, 1, "W", "y", 1],
        [1, 0, "R", "y", 0], [1, 1, "R", "x", 1]]
