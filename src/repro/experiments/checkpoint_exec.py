"""Checkpointed execution of experiment specs.

The sweep runner (:mod:`repro.experiments.sweep`) treats one spec as one
atomic unit of work; this module is the preemption-tolerant alternative:
run a spec's system in slices of ``checkpoint_every`` cycles, snapshot
the whole system (:mod:`repro.sim.checkpoint`) at every slice boundary
— including the completion boundary — and resume a preempted run from
the snapshot in a fresh process.  The sliced run is cycle-identical to
a straight ``run_until_done`` call, so the collected
:class:`~repro.experiments.sweep.SweepResult` payload is byte-identical
whether the spec ran straight, sliced, or sliced-then-resumed (the
differential test harness in ``tests/test_checkpoint_diff.py`` proves
this for every registered builder).

Checkpoints carry the spec itself in the pickled payload (and its
fingerprint in the JSON header meta), so ``resume_spec`` needs nothing
but the file: it knows the cycle budget, how to collect, and — at the
document level — which run of an experiment the snapshot belongs to.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Union

from repro.core.api import build_benchmark_system, collect_run_result
from repro.experiments.builders import (SystemSpec, build_spec_system,
                                        collect_spec_outcome)
from repro.experiments.spec import KeyMemo, RunSpec
from repro.experiments.sweep import SweepResult
from repro.sim.checkpoint import (read_checkpoint_header, restore_payload,
                                  snapshot_system)
from repro.systems.base import record_kernel_meta


def build_for_spec(spec: Union[RunSpec, SystemSpec]):
    """Construct — but do not run — the system for one spec (either
    kind), exactly as the sweep runner would."""
    if isinstance(spec, SystemSpec):
        return build_spec_system(spec)
    return build_benchmark_system(spec.benchmark, protocol=spec.protocol,
                                  config=spec.config,
                                  ops_per_core=spec.ops_per_core,
                                  workload_scale=spec.workload_scale,
                                  think_scale=spec.think_scale,
                                  seed=spec.seed)


def collect_for_spec(spec: Union[RunSpec, SystemSpec], system,
                     fingerprint: str = "") -> SweepResult:
    """Harvest the canonical :class:`SweepResult` from a finished (or
    cycle-capped) system, matching the sweep runner byte for byte."""
    if isinstance(spec, SystemSpec):
        result = SweepResult.from_outcome(spec, fingerprint,
                                          collect_spec_outcome(spec, system))
    else:
        result = SweepResult.from_run(spec, fingerprint,
                                      collect_run_result(system,
                                                         spec.protocol))
    result.label = spec.label
    return result


def snapshot_spec(spec: Union[RunSpec, SystemSpec], system, path: str,
                  fingerprint: str = "") -> None:
    """Snapshot a (spec, system) pair mid-run so :func:`resume_spec` can
    finish it in a fresh process."""
    snapshot_system(
        system, path,
        meta={"kind": ("system" if isinstance(spec, SystemSpec)
                       else "benchmark"),
              "fingerprint": fingerprint,
              "label": spec.label,
              "max_cycles": spec.max_cycles,
              "finished": bool(system.all_cores_finished())},
        extra={"spec": spec, "fingerprint": fingerprint})


def _run_sliced(spec, system, checkpoint_every: Optional[int],
                checkpoint_path: Optional[str],
                fingerprint: str) -> SweepResult:
    """Run *system* to completion (or to ``spec.max_cycles``) and
    collect.  With a checkpoint cadence, run in slices and snapshot at
    every boundary; the final snapshot on disk always reflects the
    finished state."""
    engine = system.engine
    # Finished-ness must gate *before* Engine.run: run always advances
    # at least one cycle, which would shift the runtime of a system
    # restored exactly at its completion boundary.
    while not system.all_cores_finished() and engine.cycle < spec.max_cycles:
        budget = spec.max_cycles - engine.cycle
        if checkpoint_every is not None:
            budget = min(budget, checkpoint_every)
        engine.run(budget, until=system.all_cores_finished)
        if checkpoint_path is not None and checkpoint_every is not None:
            snapshot_spec(spec, system, checkpoint_path, fingerprint)
    # The sliced equivalent of BaseSystem.run_until_done's kernel-meta
    # recording (meta never enters result payloads; kernel_accounting
    # is cumulative, so recording once at the end matches a straight
    # run).
    record_kernel_meta(system)
    return collect_for_spec(spec, system, fingerprint)


def execute_spec_checkpointed(spec: Union[RunSpec, SystemSpec],
                              checkpoint_every: Optional[int] = None,
                              checkpoint_path: Optional[str] = None,
                              fingerprint: str = "") -> SweepResult:
    """Build and run one spec with periodic snapshots to
    *checkpoint_path*; returns the same :class:`SweepResult` the sweep
    runner would have produced."""
    system = build_for_spec(spec)
    return _run_sliced(spec, system, checkpoint_every, checkpoint_path,
                       fingerprint)


def resume_spec(path: str, checkpoint_every: Optional[int] = None,
                checkpoint_path: Optional[str] = None) -> SweepResult:
    """Restore the snapshot at *path* and run it to completion.

    With *checkpoint_every*, keep snapshotting (to *checkpoint_path*,
    defaulting to overwriting *path*) on the same boundaries the
    original run used."""
    _meta, payload = restore_payload(path)
    if "spec" not in payload:
        raise ValueError(
            f"{path}: snapshot carries no spec (written by "
            f"snapshot_system directly, not by the checkpointed "
            f"executor); resume it through repro.sim.checkpoint")
    spec = payload["spec"]
    return _run_sliced(spec, payload["system"], checkpoint_every,
                       checkpoint_path or path, payload.get("fingerprint",
                                                            ""))


def resume_payload_json(path: str) -> str:
    """Restore *path*, finish the run, and return the canonical result
    payload as stable JSON — the fresh-process half of the differential
    snapshot tests (invoked via ``python -c`` in a subprocess)."""
    result = resume_spec(path)
    return json.dumps(result.payload(), sort_keys=True,
                      separators=(",", ":"))


# ---------------------------------------------------------------------------
# Document-level execution
# ---------------------------------------------------------------------------

def checkpoint_path_for(checkpoint_dir: str, fingerprint: str) -> str:
    """Where a spec's snapshot lives: ``<dir>/<fingerprint>.ckpt``."""
    return os.path.join(checkpoint_dir, f"{fingerprint}.ckpt")


def run_experiment_checkpointed(experiment,
                                checkpoint_every: Optional[int] = None,
                                checkpoint_dir: str = ".",
                                resume: Optional[str] = None):
    """Execute an experiment document serially with per-spec
    checkpointing — the engine behind ``repro run-file
    --checkpoint-every/--resume``.

    Each spec snapshots to ``<checkpoint_dir>/<fingerprint>.ckpt`` every
    *checkpoint_every* cycles.  With *resume*, the spec whose
    fingerprint matches the snapshot's header meta restores from it
    mid-run instead of rebuilding; every other spec runs fresh.  Runs
    one spec at a time in-process (never the worker pool: a snapshot is
    a process-wide cut, and byte-identity to the straight path is the
    contract being kept), and bypasses the result cache for the same
    reason — a cache hit would skip the snapshots the caller asked for.
    """
    from repro.api.document import (ExperimentSpec,
                                    collect_experiment_result,
                                    load_experiment)
    from repro.experiments.cache import code_version

    if not isinstance(experiment, ExperimentSpec):
        experiment = load_experiment(experiment)
    resume_fingerprint = None
    if resume is not None:
        resume_fingerprint = read_checkpoint_header(resume)["meta"].get(
            "fingerprint")
        if not resume_fingerprint:
            raise ValueError(
                f"{resume}: snapshot header carries no fingerprint; it "
                f"was not written by the checkpointed executor")
    if checkpoint_dir and checkpoint_every is not None:
        os.makedirs(checkpoint_dir, exist_ok=True)

    version = code_version()
    memo = KeyMemo()     # this call only: the configs are mutable
    results: List[Any] = []
    matched = False
    for spec in experiment.specs:
        fingerprint = spec.fingerprint(version, memo)
        path = checkpoint_path_for(checkpoint_dir, fingerprint)
        if resume_fingerprint == fingerprint and not matched:
            matched = True
            results.append(resume_spec(resume,
                                       checkpoint_every=checkpoint_every,
                                       checkpoint_path=path))
        else:
            results.append(execute_spec_checkpointed(
                spec, checkpoint_every=checkpoint_every,
                checkpoint_path=path, fingerprint=fingerprint))
    if resume is not None and not matched:
        raise ValueError(
            f"{resume}: snapshot fingerprint {resume_fingerprint} matches "
            f"no run in experiment {experiment.name!r} — the document or "
            f"the simulator sources changed since it was written")
    return collect_experiment_result(experiment, results)
