"""Checkpointed execution of experiment specs.

:func:`~repro.experiments.sweep.execute_point` can run a spec's system
in slices of ``checkpoint_every`` cycles and snapshot the whole system
(:mod:`repro.sim.checkpoint`) at every slice boundary — including the
completion boundary.  This module is what surrounds that: resuming a
preempted run from its snapshot in a fresh process
(:func:`resume_spec`), and executing a whole experiment document with
per-point snapshots (:func:`run_experiment_checkpointed`), through the
same :func:`~repro.experiments.sweep.plan_points` every other door
uses.  The sliced run is cycle-identical to a straight one, so the
collected :class:`~repro.experiments.sweep.SweepResult` payload is
byte-identical whether the spec ran straight, sliced, or
sliced-then-resumed (the differential test harness in
``tests/test_checkpoint_diff.py`` proves this for every registered
builder).

Checkpoints carry the spec itself in the pickled payload (and its
fingerprint in the JSON header meta), so ``resume_spec`` needs nothing
but the file: it knows the cycle budget, how to collect, and — at the
document level — which run of an experiment the snapshot belongs to.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from repro.experiments.sweep import SweepResult, execute_point, plan_points
from repro.sim.checkpoint import read_checkpoint_header, restore_payload


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
    return execute_point(payload["spec"], payload.get("fingerprint", ""),
                         checkpoint_every=checkpoint_every,
                         checkpoint_path=checkpoint_path or path,
                         system=payload["system"])


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
    mid-run instead of rebuilding; every other spec runs fresh (a run
    the document repeats simulates once).  Runs one spec at a time
    in-process (never the worker pool: a snapshot is a process-wide cut,
    and byte-identity to the straight path is the contract being kept),
    and bypasses the result cache for the same reason — a cache hit
    would skip the snapshots the caller asked for.
    """
    from repro.api.document import (ExperimentSpec,
                                    collect_experiment_result,
                                    load_experiment)

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

    plan = plan_points(experiment.specs)
    if resume is not None and resume_fingerprint not in plan.pending:
        raise ValueError(
            f"{resume}: snapshot fingerprint {resume_fingerprint} matches "
            f"no run in experiment {experiment.name!r} — the document or "
            f"the simulator sources changed since it was written")
    for fingerprint, spec in plan.to_run():
        path = checkpoint_path_for(checkpoint_dir, fingerprint)
        if resume_fingerprint == fingerprint:
            result = resume_spec(resume, checkpoint_every=checkpoint_every,
                                 checkpoint_path=path)
        else:
            result = execute_point(spec, fingerprint,
                                   checkpoint_every=checkpoint_every,
                                   checkpoint_path=path)
        plan.resolve(fingerprint, result.payload())
    return collect_experiment_result(experiment, plan.results)
