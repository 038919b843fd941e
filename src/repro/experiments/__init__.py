"""Experiment orchestration: sweep expansion, parallel fan-out, result cache.

The substrate the figure harnesses, the benchmark suite, and the
``repro sweep`` CLI all run on.  Typical use::

    from repro.experiments import benchmark_spec, run_sweep

    specs = [benchmark_spec(benchmark, protocol, seed=seed,
                            ops_per_core=100)
             for benchmark in ("barnes", "lu")
             for protocol in ("lpd", "ht", "scorpio")
             for seed in (0, 1, 2)]
    results = run_sweep(specs, jobs=8, cache="~/.cache/repro")

A batch runs serially and uncached unless its call says otherwise: the
library reads no environment (``repro`` itself maps ``REPRO_JOBS`` /
``REPRO_CACHE_DIR`` onto these two arguments).

See EXPERIMENTS.md for how sweeps relate to the paper's evaluation
regime, and ``repro sweep --help`` for the CLI front-end.
"""

from repro.experiments.builders import (SystemBuilder, SystemSpec,
                                        benchmark_spec, builder_names,
                                        execute_system_spec, get_builder,
                                        list_builders, register_builder,
                                        resolve_workload, workload_kinds)
from repro.experiments.cache import (CacheBackend, LocalDirBackend,
                                     ResultCache, as_backend, as_cache,
                                     code_version)
from repro.experiments.checkpoint_exec import (resume_spec,
                                               run_experiment_checkpointed)
from repro.experiments.spec import (SystemRunOutcome, config_to_dict,
                                    profile_to_dict)
from repro.experiments.sweep import (Plan, SweepPointError, SweepResult,
                                     execute_point, plan_points, run_plan,
                                     run_sweep, snapshot_spec)

__all__ = [
    "CacheBackend", "LocalDirBackend", "Plan", "ResultCache",
    "SweepPointError", "SweepResult", "SystemBuilder", "SystemRunOutcome",
    "SystemSpec", "as_backend", "as_cache", "benchmark_spec",
    "builder_names", "code_version", "config_to_dict", "execute_point",
    "execute_system_spec", "get_builder", "list_builders", "plan_points",
    "profile_to_dict", "register_builder", "resolve_workload",
    "resume_spec", "run_experiment_checkpointed", "run_plan", "run_sweep",
    "snapshot_spec", "workload_kinds",
]
