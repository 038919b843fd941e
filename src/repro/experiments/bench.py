"""``repro bench`` — wall-clock benchmark of the quiescence kernel.

Runs a fixed set of workloads twice each — sleep/wake scheduling on and
off — and writes a JSON report (``BENCH_9.json``) with wall-clock time,
simulated cycles per second and the on/off speedup, so the performance
trajectory of the kernel has data instead of anecdotes.

Every pair is also checked for identical simulated outcomes (runtime and
a stats digest): the bench doubles as a coarse differential test, and a
mismatch fails loudly rather than reporting a speedup for a kernel that
changed the simulation.

Each workload is additionally timed a third time with the event journal
attached (quiescence on — the production configuration).  The digest of
the journal-on run must equal the journal-off digest — a hard,
deterministic check that instrumentation never changes simulated
behaviour — and the ``journal_overhead`` ratio records the wall-clock
cost of running *with* the journal.  ``max_journal_overhead`` turns the
ratio into a failure threshold for hosts quiet enough to enforce one.

``smoke`` mode shrinks everything to seconds of total runtime for CI: it
exists to prove the harness runs end to end and to archive the artifact,
not to produce meaningful numbers — CI runners are far too noisy for
thresholds, so none are applied there (the digest check still is: it is
deterministic, not a timing).
"""

from __future__ import annotations

import hashlib
import json
import platform
import time
from typing import Any, Dict, Optional

from repro.core.config import ChipConfig
from repro.experiments.builders import SystemSpec, execute_system_spec
from repro.sim.engine import forced_quiescence

BENCH_SCHEMA = 1

# Workload points: a sweep the kernel should excel at (low injection —
# long think gaps, mostly-idle mesh), one it must not regress (saturated
# broadcast traffic keeps every component awake), and the lock-handoff
# pattern in between.
_FULL = {
    "fft-low-injection": dict(
        builder="scorpio",
        workload={"kind": "benchmark", "name": "fft", "ops_per_core": 40,
                  "workload_scale": 0.05, "think_scale": 200.0, "seed": 0}),
    "fft-saturated": dict(
        builder="scorpio",
        workload={"kind": "benchmark", "name": "fft", "ops_per_core": 60,
                  "workload_scale": 0.05, "think_scale": 1.0, "seed": 0}),
    "locks": dict(
        builder="scorpio",
        workload={"kind": "locks", "acquisitions_per_core": 3,
                  "critical_ops": 3, "think": 40, "seed": 0}),
}

_SMOKE = {
    "fft-low-injection": dict(
        builder="scorpio",
        workload={"kind": "benchmark", "name": "fft", "ops_per_core": 8,
                  "workload_scale": 0.02, "think_scale": 60.0, "seed": 0}),
    "fft-saturated": dict(
        builder="scorpio",
        workload={"kind": "benchmark", "name": "fft", "ops_per_core": 8,
                  "workload_scale": 0.02, "think_scale": 1.0, "seed": 0}),
}


def _outcome_digest(outcome) -> str:
    blob = json.dumps({"runtime": outcome.runtime,
                       "completed_ops": outcome.completed_ops,
                       "progress": outcome.progress,
                       "stats": outcome.stats,
                       "extra": outcome.extra},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _time_spec(spec: SystemSpec, quiescence: bool, repeats: int,
               instrument=None):
    best: Optional[float] = None
    outcome = None
    with forced_quiescence(quiescence):
        for _ in range(repeats):
            t0 = time.perf_counter()
            outcome = execute_system_spec(spec, instrument=instrument)
            elapsed = time.perf_counter() - t0
            if best is None or elapsed < best:
                best = elapsed
    return outcome, best


def _journal_instrument(system):
    from repro.sim.journal import EventJournal, attach_observability
    attach_observability(system, EventJournal())


def run_bench(smoke: bool = False, repeats: int = 1,
              config: Optional[ChipConfig] = None,
              max_journal_overhead: Optional[float] = None
              ) -> Dict[str, Any]:
    """Run the on/off timing matrix; returns the JSON-able report.

    *max_journal_overhead*, when given, fails the bench if any
    workload's journal-on wall clock exceeds the journal-off wall clock
    by more than that fraction (e.g. ``0.5`` = 50%).  Off by default:
    wall-clock thresholds only mean something on a quiet host.
    """
    if config is None:
        config = ChipConfig.variant(3, 3) if smoke \
            else ChipConfig.chip_36core()
    table = _SMOKE if smoke else _FULL
    workloads: Dict[str, Any] = {}
    for name, point in table.items():
        spec = SystemSpec(point["builder"], config,
                          workload=point["workload"])
        on, t_on = _time_spec(spec, True, repeats)
        off, t_off = _time_spec(spec, False, repeats)
        if _outcome_digest(on) != _outcome_digest(off):
            raise AssertionError(
                f"bench workload {name!r}: quiescence on/off produced "
                f"different simulated outcomes (runtime {on.runtime} vs "
                f"{off.runtime}) — the kernel is broken, not fast")
        journaled, t_journal = _time_spec(spec, True, repeats,
                                          instrument=_journal_instrument)
        if _outcome_digest(journaled) != _outcome_digest(on):
            raise AssertionError(
                f"bench workload {name!r}: attaching the event journal "
                f"changed the simulated outcome (runtime "
                f"{journaled.runtime} vs {on.runtime}) — observability "
                f"must be side-channel only")
        overhead = round(t_journal / t_on - 1.0, 3)
        if max_journal_overhead is not None \
                and overhead > max_journal_overhead:
            raise AssertionError(
                f"bench workload {name!r}: journal-on overhead "
                f"{overhead:+.1%} exceeds the "
                f"--max-journal-overhead threshold "
                f"{max_journal_overhead:.1%}")
        workloads[name] = {
            "builder": point["builder"],
            "workload": point["workload"],
            "cycles": on.runtime,
            "wall_seconds_quiescence_on": round(t_on, 4),
            "wall_seconds_quiescence_off": round(t_off, 4),
            "wall_seconds_journal_on": round(t_journal, 4),
            "cycles_per_second_on": round(on.runtime / t_on, 1),
            "cycles_per_second_off": round(on.runtime / t_off, 1),
            "speedup": round(t_off / t_on, 3),
            "journal_overhead": overhead,
            "outcome_digest": _outcome_digest(on),
        }
    return {
        "schema": BENCH_SCHEMA,
        "bench": "quiescence-kernel",
        "smoke": smoke,
        "repeats": repeats,
        "mesh": f"{config.noc.width}x{config.noc.height}",
        "python": platform.python_version(),
        "workloads": workloads,
    }


def write_bench(path: str, smoke: bool = False, repeats: int = 1,
                config: Optional[ChipConfig] = None,
                max_journal_overhead: Optional[float] = None
                ) -> Dict[str, Any]:
    report = run_bench(smoke=smoke, repeats=repeats, config=config,
                       max_journal_overhead=max_journal_overhead)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return report
