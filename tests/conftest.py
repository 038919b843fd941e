"""Fixtures shared by the figure tests, the end-of-run credit count, and
the session's one snapshot of the simulator sources; and the Hypothesis
profiles.

Tier-1 is a pure function of the tree: the default ``tier1`` profile
derives every property test's examples from the test itself and keeps no
example database, so two runs draw the same examples.  ``soak``
(``pytest --hypothesis-profile=soak``, which overrides the default)
draws fresh examples on every run and prints the blob that reproduces a
failure.  A setting a test spells in its own ``@settings`` (such as
``max_examples``) wins over either profile."""

import shutil
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import settings

import repro
from repro.analysis.figures import QUICK
from repro.experiments import as_cache, executing
from repro.experiments.cache import code_version

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("soak", print_blob=True)
settings.load_profile("tier1")


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


@pytest.fixture(scope="session")
def credits_in_flight():
    """``count(system)``: flits not yet credited back to their sender,
    over every router outport and NIC lane of *system* (0 once every
    credit is home)."""
    def count(system):
        ports = [out for mesh in system.meshes for router in mesh.routers
                 for out in router.out if out is not None]
        ports += [lane for nic in system.nics for lane in nic._lanes]
        return sum(port.in_flight_flits() for port in ports)
    return count


@pytest.fixture
def tiny_regime():
    """QUICK's sweeps at a few operations per core: any figure in about
    a second, passed to ``generate`` / ``build_report`` as an argument."""
    return replace(QUICK, ops_per_core=10, workload_scale=0.02,
                   think_scale=10.0)
