"""Shared regime for the reproduction benchmarks.

The paper's evaluation runs full benchmarks for millions of cycles on
GEMS or 400 K-cycle RTL windows.  A pure-Python simulator cannot, so every
harness here runs a *down-scaled* configuration chosen to preserve the
relative pressures that drive each figure (see EXPERIMENTS.md):

* workload footprints shrink together with the directory-cache capacity,
  so LPD's directory thrashing survives the scaling;
* think times stretch so the injection rate stays below the mesh's
  broadcast saturation point, as in the paper's steady-state runs;
* runs finish in thousands of cycles instead of hundreds of thousands.

Absolute cycle counts therefore differ from the paper; the *shape* (who
wins, roughly by how much, where the crossovers are) is what each bench
asserts and prints.

Every harness here is auto-marked ``slow`` (see
``pytest_collection_modifyitems``): the default test run (``pytest``,
which applies ``-m "not slow"`` from pytest.ini) skips them, and
``pytest -m slow benchmarks`` runs the full figure reproduction.

Runs route through the experiment orchestrator
(:mod:`repro.experiments`) via :func:`sweep_run`/:func:`sweep_grid`, so
``REPRO_CACHE_DIR=... pytest -m slow benchmarks`` recalls previously
simulated points instead of recomputing them.  ``REPRO_JOBS=N``
additionally fans out the harnesses that batch a whole grid per call
(:func:`sweep_grid` and the fig8 sweep); :func:`sweep_run` submits one
point at a time, so those call sites stay serial when cold.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from repro.core import ChipConfig
from repro.experiments import RunSpec, run_grid, run_sweep

_BENCH_DIR = Path(__file__).parent


def pytest_collection_modifyitems(items):
    # The hook sees the whole session's items; mark only the harnesses
    # that live in this directory.
    for item in items:
        if _BENCH_DIR in Path(str(item.fspath)).parents:
            item.add_marker(pytest.mark.slow)

# The down-scaled evaluation regime used across all figures.
OPS_PER_CORE = 100
WORKLOAD_SCALE = 0.05
THINK_SCALE = 20.0
DIR_CACHE_BYTES = 8 * 1024
MAX_CYCLES = 300_000
SEED = 0


def chip36() -> ChipConfig:
    return replace(ChipConfig.chip_36core(),
                   directory_cache_bytes=DIR_CACHE_BYTES)


def chip64() -> ChipConfig:
    return replace(ChipConfig.chip_64core(),
                   directory_cache_bytes=DIR_CACHE_BYTES)


def run_once(benchmark_fixture, fn):
    """Run *fn* exactly once under pytest-benchmark (simulations are
    deterministic; repeated timing rounds would only re-run the same
    cycles)."""
    return benchmark_fixture.pedantic(fn, rounds=1, iterations=1,
                                      warmup_rounds=0)


def sweep_run(name, protocol, config, **regime):
    """One run routed through the experiment orchestrator.

    Drop-in for :func:`repro.core.run_benchmark` in the harnesses: same
    RunResult out, but cache-aware (``REPRO_CACHE_DIR``)."""
    spec = RunSpec(benchmark=name, protocol=protocol, config=config,
                   **regime)
    return run_sweep([spec])[0]


def sweep_grid(benchmarks, protocols, config, **regime):
    """A benchmark x protocol grid in one sweep batch: parallelizable
    (``REPRO_JOBS``) and cached.  Returns {benchmark: {protocol:
    RunResult}}."""
    return run_grid(benchmarks, protocols, config=config, **regime)


@pytest.fixture
def regime():
    return dict(ops_per_core=OPS_PER_CORE, workload_scale=WORKLOAD_SCALE,
                think_scale=THINK_SCALE, max_cycles=MAX_CYCLES, seed=SEED)
