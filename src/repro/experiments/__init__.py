"""Experiment orchestration: sweep expansion, parallel fan-out, result cache.

The substrate the figure harnesses, the benchmark suite, and the
``repro sweep`` CLI all run on.  Typical use::

    from repro.experiments import Sweep, run_sweep

    sweep = Sweep(benchmarks=("barnes", "lu"),
                  protocols=("lpd", "ht", "scorpio"),
                  seeds=(0, 1, 2), ops_per_core=100)
    results = run_sweep(sweep, jobs=8, cache="~/.cache/repro")

See EXPERIMENTS.md for how sweeps relate to the paper's evaluation
regime, and ``repro sweep --help`` for the CLI front-end.
"""

from repro.experiments.builders import (SystemBuilder, SystemSpec,
                                        builder_names, execute_system_spec,
                                        get_builder, list_builders,
                                        register_builder, resolve_workload,
                                        workload_kinds)
from repro.experiments.cache import (CacheBackend, LocalDirBackend,
                                     ResultCache, as_backend, as_cache,
                                     code_version)
from repro.experiments.checkpoint_exec import (resume_spec,
                                               run_experiment_checkpointed)
from repro.experiments.context import (ExecutionContext, configure,
                                       executing, get_context)
from repro.experiments.spec import (PointSpec, RunSpec, SystemRunOutcome,
                                    config_to_dict, profile_to_dict)
from repro.experiments.sweep import (Plan, Sweep, SweepPointError,
                                     SweepResult, execute_point, plan_points,
                                     run_grid, run_plan, run_sweep,
                                     snapshot_spec)

__all__ = [
    "CacheBackend", "ExecutionContext", "LocalDirBackend", "Plan",
    "PointSpec", "ResultCache", "RunSpec", "Sweep", "SweepPointError",
    "SweepResult", "SystemBuilder", "SystemRunOutcome", "SystemSpec",
    "as_backend", "as_cache", "builder_names", "code_version", "configure",
    "config_to_dict", "executing", "execute_point", "execute_system_spec",
    "get_builder", "get_context", "list_builders", "plan_points",
    "profile_to_dict", "register_builder", "resolve_workload",
    "resume_spec", "run_experiment_checkpointed", "run_grid", "run_plan",
    "run_sweep", "snapshot_spec", "workload_kinds",
]
