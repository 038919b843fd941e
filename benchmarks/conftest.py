"""Shared plumbing for the reproduction benchmarks.

The paper's evaluation runs full benchmarks for millions of cycles on
GEMS or 400 K-cycle RTL windows.  A pure-Python simulator cannot, so every
harness here runs a *down-scaled* regime — ``FULL`` in
:mod:`repro.analysis.figures`, explained in EXPERIMENTS.md — chosen to
preserve the relative pressures that drive each figure.  Absolute cycle
counts therefore differ from the paper; the *shape* (who wins, roughly by
how much, where the crossovers are) is what each bench asserts and
prints.

Every harness here is auto-marked ``slow`` (see
``pytest_collection_modifyitems``): the default test run (``pytest``,
which applies ``-m "not slow"`` from pytest.ini) skips them, and
``pytest -m slow benchmarks`` runs the full reproduction.

Runs route through the experiment orchestrator
(:mod:`repro.experiments`), a whole figure per ``run_sweep`` batch, so
``REPRO_JOBS=N`` fans each figure out and ``REPRO_CACHE_DIR=...`` recalls
previously simulated points (the figures share some: Fig. 6b/6c's are a
subset of Fig. 6a's, the four Fig. 8 sweeps meet at the fabricated chip).
"""

from pathlib import Path

import pytest

_BENCH_DIR = Path(__file__).parent

# The safety bound and seed of the hand-built (non-figure) harnesses.
MAX_CYCLES = 300_000
SEED = 0


def pytest_collection_modifyitems(items):
    # The hook sees the whole session's items; mark only the harnesses
    # that live in this directory.
    for item in items:
        if _BENCH_DIR in Path(str(item.fspath)).parents:
            item.add_marker(pytest.mark.slow)


def run_once(benchmark_fixture, fn):
    """Run *fn* exactly once under pytest-benchmark (simulations are
    deterministic; repeated timing rounds would only re-run the same
    cycles)."""
    return benchmark_fixture.pedantic(fn, rounds=1, iterations=1,
                                      warmup_rounds=0)
