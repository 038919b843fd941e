"""Fixtures shared by the figure tests, and the session's one snapshot
of the simulator sources."""

import shutil
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro.analysis.figures import QUICK
from repro.experiments import as_cache, executing
from repro.experiments.cache import code_version


@pytest.fixture(scope="session", autouse=True)
def source_snapshot(tmp_path_factory):
    """A copy of the ``repro`` package taken at session start, in the
    same breath as this process memoises ``code_version()``.

    Fingerprints embed that digest of the sources.  A test that starts a
    fresh interpreter puts this directory (not the working tree) on its
    ``PYTHONPATH``, so both sides of its comparison hash the same files
    even when something under ``src/repro`` is edited while the session
    runs."""
    root = tmp_path_factory.mktemp("source-snapshot")
    shutil.copytree(Path(repro.__file__).parent, root / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code_version()
    return root


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
