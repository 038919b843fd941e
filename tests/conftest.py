"""Fixtures shared by the figure tests."""

from dataclasses import replace

import pytest

from repro.analysis.figures import QUICK
from repro.experiments import as_cache, executing


@pytest.fixture(scope="session")
def figure_cache(tmp_path_factory):
    """One result cache for the whole session, so a quick-regime point
    that several figure tests render simulates once."""
    return as_cache(tmp_path_factory.mktemp("figure-cache"))


@pytest.fixture
def cached_figures(figure_cache):
    """Run the test with :func:`figure_cache` as the ambient cache."""
    with executing(cache=figure_cache):
        yield


@pytest.fixture
def tiny_regime():
    """QUICK's sweeps at a few operations per core: any figure in about
    a second, passed to ``generate`` / ``build_report`` as an argument."""
    return replace(QUICK, ops_per_core=10, workload_scale=0.02,
                   think_scale=10.0)
