"""Job bookkeeping for the sweep service.

A *job* is one submitted experiment document.  A job holds the same
:class:`~repro.experiments.sweep.Plan` the local ``run_experiment``
executes — :func:`~repro.experiments.sweep.plan_points` against the
shared backend, ``plan.resolve`` as points complete, the same
:func:`collect_experiment_result` tail — so the envelope a job produces
is **byte-identical** to ``repro run-file`` on the same document
against the same cache state.  That is the contract that makes a shared
service safe: a result is a result, regardless of which door it came
through (``tests/test_serve.py`` and ``tests/test_one_pipeline.py``
lock it).

Points that miss the cache go to the host's
:class:`~repro.serve.scheduler.PointScheduler`; everything else is
answered at submit time.  Each job records an append-only event log
(``queued`` / ``point`` / ``retry`` / ``done`` / ``failed``) that the
frontend streams as NDJSON; the terminal ``done`` / ``failed`` event
carries the job's final summary.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional

from repro.api.document import (ExperimentSpec, collect_experiment_result,
                                envelope_bytes)
from repro.experiments.cache import CacheBackend, result_payload
from repro.experiments.sweep import Plan, SweepPointError, plan_points
from repro.serve.scheduler import PointScheduler


class Job:
    """One submitted document and everything it has produced so far."""

    def __init__(self, job_id: str, experiment: ExperimentSpec,
                 plan: Plan) -> None:
        self.id = job_id
        self.experiment = experiment
        self.plan = plan
        self.state = "running"          # running | done | failed
        self.remaining = len(plan.pending)
        self.failures: Dict[str, str] = {}
        self.retries = 0
        self.envelope: Optional[bytes] = None
        self.error: Optional[str] = None
        self.events: List[Dict[str, Any]] = []
        self.condition = threading.Condition()

    # -- status ---------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        with self.condition:
            return {
                "job": self.id,
                "experiment": self.experiment.name,
                "state": self.state,
                "points": len(self.plan.results),
                "pending": self.remaining,
                "retries": self.retries,
                "cache": self.plan.cache_stats,
                "failures": dict(self.failures),
                "error": self.error,
            }

    def _emit(self, event: Dict[str, Any]) -> None:
        """Append an event and wake streamers (condition held)."""
        event["job"] = self.id
        self.events.append(event)
        self.condition.notify_all()


class JobManager:
    """Expands, short-circuits, schedules and assembles jobs."""

    def __init__(self, backend: CacheBackend,
                 scheduler: PointScheduler) -> None:
        self.backend = backend
        self.scheduler = scheduler
        self._jobs: Dict[str, Job] = {}
        self._lock = threading.Lock()
        self._counter = 0

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(self, experiment: ExperimentSpec) -> Job:
        """Accept a validated document: resolve every point against the
        cache (submit-time short-circuit), queue only the unique misses.
        """
        plan = plan_points(experiment.specs, self._recall)
        with self._lock:
            self._counter += 1
            job = Job(f"job-{self._counter:04d}", experiment, plan)
            self._jobs[job.id] = job
        with job.condition:
            job._emit({"event": "queued", "points": len(plan.results),
                       "pending": job.remaining, **plan.cache_stats})
        if job.remaining == 0:
            self._finalize(job)
            return job
        for fingerprint, spec in plan.to_run():
            self.scheduler.submit(
                fingerprint, spec,
                lambda kind, fp, payload, error, _job=job:
                    self._on_point(_job, kind, fp, payload, error))
        return job

    def _recall(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        return result_payload(self.backend.get(fingerprint), fingerprint)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    # ------------------------------------------------------------------
    # Completion (called from the scheduler's dispatch thread)
    # ------------------------------------------------------------------

    def _on_point(self, job: Job, kind: str, fingerprint: str,
                  payload: Optional[Dict[str, Any]],
                  error: Optional[str]) -> None:
        if kind == "retry":
            with job.condition:
                job.retries += 1
                job._emit({"event": "retry", "fingerprint": fingerprint,
                           "error": error})
            return
        with job.condition:
            if kind == "done" and payload is not None:
                indices = job.plan.resolve(fingerprint, payload)
                job._emit({"event": "point", "fingerprint": fingerprint,
                           "indices": list(indices)})
            else:
                job.failures[fingerprint] = error or "unknown failure"
                job._emit({"event": "point_failed",
                           "fingerprint": fingerprint, "error": error})
            job.remaining -= 1
            finished = job.remaining == 0
        if finished:
            self._finalize(job)

    def _finalize(self, job: Job) -> None:
        """Assemble the terminal state: the byte-canonical envelope on
        success, a loud per-fingerprint failure list otherwise.  The
        terminal event carries the job's final summary, so a client
        following the stream needs no status request after it."""
        envelope = None
        if job.failures:
            error = str(SweepPointError(job.failures))
            event = {"event": "failed", "error": error,
                     "failures": dict(job.failures)}
        else:
            try:
                collected = collect_experiment_result(job.experiment,
                                                      job.plan.results)
                collected.cache_stats = job.plan.cache_stats
                envelope = envelope_bytes(collected.payload())
                error = None
                event = {"event": "done", "cache": job.plan.cache_stats,
                         "bytes": len(envelope)}
            except Exception as exc:  # litmus collection failure
                error = f"result collection failed: {exc}"
                event = {"event": "failed", "error": error}
        with job.condition:
            job.envelope, job.error = envelope, error
            job.state = "failed" if error else "done"
            event["summary"] = job.summary()
            job._emit(event)
