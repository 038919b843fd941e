"""The point scheduler: shards sweep points across worker processes.

One :class:`PointScheduler` serves every job on a host.  It owns a
:class:`~repro.experiments.procpool.SlotPool` (the same fork-once
worker slots the local ``run_sweep`` hardening uses) and a dispatch
thread that drains submissions into the pool, reaps events, writes
fresh results through to the shared cache backend, and fires the
subscribed callbacks.

Two layers of cache short-circuiting keep "never re-simulate a point
anyone has run" true:

* **submit time** — :class:`~repro.serve.jobs.JobManager` looks every
  point up before it ever reaches the scheduler, so warm points never
  enter the queue at all;
* **dispatch time** — the pool's ``precheck`` hook re-probes the
  backend immediately before a point would be handed to a worker, so a
  point another host (or a concurrent job) finished while this one sat
  queued is also skipped.

Identical fingerprints submitted by concurrent jobs coalesce: the first
submission simulates, every later one just subscribes to the same
completion.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.experiments.cache import CacheBackend, result_payload
from repro.experiments.procpool import (DEFAULT_BACKOFF, DEFAULT_RETRIES,
                                        SlotPool)
from repro.experiments.sweep import _pool_worker

# callback(kind, fingerprint, payload_or_None, error_or_None) with kind
# "done" | "failed" | "retry"; called from the dispatch thread.
PointCallback = Callable[[str, str, Optional[Dict[str, Any]],
                          Optional[str]], None]


class PointScheduler:
    """Host-wide dispatcher of fingerprinted sweep points."""

    def __init__(self, backend: CacheBackend, workers: int = 2,
                 retries: int = DEFAULT_RETRIES,
                 point_timeout: Optional[float] = None,
                 backoff: float = DEFAULT_BACKOFF) -> None:
        self.backend = backend
        self._pool = SlotPool(worker=_pool_worker, jobs=workers,
                              retries=retries, timeout=point_timeout,
                              backoff=backoff, precheck=self._precheck)
        self._lock = threading.Lock()
        self._waiters: Dict[str, List[PointCallback]] = {}
        self._submissions: List[Tuple[str, Any]] = []
        self._wake = threading.Event()
        self._stop = threading.Event()
        self.dispatched = 0     # points that actually reached a worker
        # Points the precheck answered from the backend (dispatch thread
        # only): already stored, so their "done" writes nothing.
        self._recalled: Set[str] = set()
        self._thread = threading.Thread(target=self._run,
                                        name="repro-serve-scheduler",
                                        daemon=True)
        self._thread.start()

    # ------------------------------------------------------------------
    # Submission (any thread)
    # ------------------------------------------------------------------

    def submit(self, fingerprint: str, spec: Any,
               callback: PointCallback) -> None:
        """Queue *spec* for execution; *callback* fires on completion.

        A fingerprint already in flight is not queued again — the
        callback simply joins the existing point's subscriber list.
        """
        with self._lock:
            waiters = self._waiters.get(fingerprint)
            if waiters is not None:
                waiters.append(callback)
                return
            self._waiters[fingerprint] = [callback]
            self._submissions.append((fingerprint, spec))
        self._wake.set()

    def in_flight(self) -> int:
        with self._lock:
            return len(self._waiters)

    @property
    def spawned(self) -> int:
        """Attempts handed to a worker — zero across a warm-cache job is
        the scheduler-level proof of the short-circuit."""
        return self._pool.spawned

    @property
    def forked(self) -> int:
        """Worker processes started: at most ``workers`` while no point
        fails."""
        return self._pool.forked

    def stop(self) -> None:
        self._stop.set()
        self._wake.set()
        self._thread.join(timeout=10.0)
        self._pool.close()

    # ------------------------------------------------------------------
    # Dispatch thread
    # ------------------------------------------------------------------

    def _precheck(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """Last-moment cross-host dedup: a point computed elsewhere
        while queued here is recalled instead of simulated."""
        payload = result_payload(self.backend.get(fingerprint), fingerprint)
        if payload is not None:
            self._recalled.add(fingerprint)
        return payload

    def _run(self) -> None:
        while not self._stop.is_set():
            drained = self._drain()
            events = self._pool.step()
            for event in events:
                self._handle(event)
            if self._pool.pending():
                self._pool.wait(0.2)
            elif not drained and not events:
                self._wake.wait(0.2)
                self._wake.clear()

    def _drain(self) -> bool:
        with self._lock:
            submissions, self._submissions = self._submissions, []
        for fingerprint, spec in submissions:
            self.dispatched += 1
            self._pool.submit(fingerprint, (spec, fingerprint))
        return bool(submissions)

    def _handle(self, event) -> None:
        kind, fingerprint = event[0], event[1]
        if kind == "done":
            payload = event[2]
            # Write-through before the callbacks run: a subscriber that
            # immediately re-reads the cache must see the entry.  A
            # computed point is put unconditionally (its bytes are
            # deterministic and the put atomic), which also repairs an
            # entry that is not this point's payload.
            if fingerprint in self._recalled:
                self._recalled.remove(fingerprint)
            else:
                self.backend.put(fingerprint, payload)
            self._fire(fingerprint, "done", payload, None)
        elif kind == "failed":
            self._fire(fingerprint, "failed", None, event[2])
        elif kind == "retry":
            with self._lock:
                waiters = list(self._waiters.get(fingerprint, ()))
            for callback in waiters:
                callback("retry", fingerprint, None,
                         f"attempt {event[2]}: {event[3]}")

    def _fire(self, fingerprint: str, kind: str,
              payload: Optional[Dict[str, Any]],
              error: Optional[str]) -> None:
        with self._lock:
            waiters = self._waiters.pop(fingerprint, [])
        for callback in waiters:
            callback(kind, fingerprint, payload, error)
