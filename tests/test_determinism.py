"""Whole-system determinism: identical seeds must reproduce identical
runs bit-for-bit (runtime, statistics, final cache states), across every
protocol — the property that makes every figure in this repo
regenerable."""

import pytest

from repro.core import ChipConfig
from repro.experiments import benchmark_spec, execute_point


def run(protocol, seed, ops=15):
    config = ChipConfig.variant(3, 3)
    return execute_point(benchmark_spec(
        "lu", protocol, config, ops_per_core=ops, workload_scale=0.02,
        think_scale=10.0, seed=seed))


@pytest.mark.parametrize("protocol", ["scorpio", "lpd", "ht", "fullbit"])
def test_same_seed_same_run(protocol):
    first = run(protocol, seed=3)
    second = run(protocol, seed=3)
    assert first.runtime == second.runtime
    assert first.completed_ops == second.completed_ops
    assert first.stats == second.stats


def test_different_seeds_differ():
    runtimes = {run("scorpio", seed=s).runtime for s in range(4)}
    assert len(runtimes) > 1, "seeds should perturb the workload"


def test_baseline_systems_deterministic():
    from repro.core.config import ChipConfig
    from repro.ordering_baselines.systems import (TimestampSystem,
                                                  UncorqSystem)
    from repro.workloads.synthetic import uniform_random_trace

    for builder in (TimestampSystem, UncorqSystem):
        runtimes = []
        for _ in range(2):
            traces = [uniform_random_trace(c, 8, 8, write_fraction=0.5,
                                           think=4, seed=17)
                      for c in range(9)]
            system = builder(ChipConfig.variant(3, 3), traces=traces)
            system.run_until_done(300_000)
            assert system.all_cores_finished()
            runtimes.append(system.engine.cycle)
        assert runtimes[0] == runtimes[1], builder.__name__


# ---------------------------------------------------------------------------
# Cross-process determinism
# ---------------------------------------------------------------------------

_SUBPROCESS_SNIPPET = """
import sys, json
from repro.core.config import ChipConfig
from repro.experiments import benchmark_spec, execute_point
spec = benchmark_spec("lu", sys.argv[1], ChipConfig.variant(3, 3),
                      ops_per_core=15, workload_scale=0.02,
                      think_scale=10.0, seed=3)
result = execute_point(spec)
sys.stdout.write(json.dumps(result.payload(), sort_keys=True,
                            separators=(",", ":")))
"""


def _payload_in_subprocess(protocol):
    import os
    import subprocess
    import sys

    import repro
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_SNIPPET, protocol],
        capture_output=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


@pytest.mark.parametrize("protocol", ["scorpio", "lpd"])
def test_cross_process_same_payload_bytes(protocol):
    """Two brand-new interpreters running the same spec serialize
    byte-identical result payloads: determinism does not depend on any
    state accumulated in a long-lived process (id allocators, RNG,
    import order)."""
    first = _payload_in_subprocess(protocol)
    second = _payload_in_subprocess(protocol)
    assert first == second
    assert b'"runtime"' in first     # sanity: a real payload came back


def test_in_process_matches_fresh_process():
    """The payload computed in this (test-suite-warmed) process equals
    the fresh subprocess one — global allocator offsets never leak into
    payloads."""
    import json

    from repro.experiments import benchmark_spec, execute_point

    spec = benchmark_spec("lu", "scorpio", ChipConfig.variant(3, 3),
                          ops_per_core=15, workload_scale=0.02,
                          think_scale=10.0, seed=3)
    local = json.dumps(execute_point(spec).payload(),
                       sort_keys=True, separators=(",", ":")).encode()
    assert local == _payload_in_subprocess("scorpio")
