"""The execution pipeline: plan -> execute -> collect.

Every door that turns specs into results — :func:`run_sweep`, experiment
documents (``run-file``, checkpointed or not), the HTML report's
instrumented re-runs, ``repro serve`` — runs the same two functions:

* :func:`plan_points` fingerprints a batch (config + workload + knobs +
  simulator source version), probes a cache backend once per distinct
  fingerprint, fills in the hits, and groups the misses by fingerprint:
  a point requested twice simulates once and the repeat is an alias.
* :func:`execute_point` is the one build -> instrument -> run ->
  record-meta -> harvest sequence, with optional snapshots on a cycle
  cadence (see :mod:`repro.experiments.checkpoint_exec`).

:func:`run_sweep` puts the local driver between them: the misses run
serially by default, or with ``jobs > 1`` on fork-once worker processes
(:mod:`repro.experiments.procpool`; a dying worker retries its point, a
point that keeps failing raises :class:`SweepPointError`), and each
fresh result is written back to the cache as it completes.  Simulations
are deterministic in the spec (trace generation is seeded and the engine
draws no random numbers; see ``tests/test_determinism.py``), so a
parallel sweep is bit-identical to a serial one.  The result row is :class:`repro.core.api.RunResult`
(``SweepResult`` here is the same class); its ``payload()`` is the
canonical serialized form: what the cache stores, and byte-for-byte
what a hit returns.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.core.api import RunResult
from repro.sim.checkpoint import snapshot_system
from repro.experiments.cache import ResultCache, as_cache, code_version
from repro.experiments.procpool import DEFAULT_RETRIES, run_points
from repro.experiments.builders import SystemSpec
from repro.experiments.spec import KeyMemo

# One result-row class; the experiment layer, the tests and the docs
# know it by this name.
SweepResult = RunResult


def snapshot_spec(spec: SystemSpec, system, path: str,
                  fingerprint: str = "") -> None:
    """Snapshot a (spec, system) pair mid-run so
    :func:`~repro.experiments.checkpoint_exec.resume_spec` can finish it
    in a fresh process."""
    snapshot_system(
        system, path,
        meta={"fingerprint": fingerprint,
              "label": spec.label,
              "max_cycles": spec.max_cycles,
              "finished": bool(system.all_cores_finished())},
        extra={"spec": spec, "fingerprint": fingerprint})


def execute_point(spec: SystemSpec, fingerprint: str = "", *,
                  instrument: Optional[Callable[[Any], None]] = None,
                  checkpoint_every: Optional[int] = None,
                  checkpoint_path: Optional[str] = None,
                  system=None) -> SweepResult:
    """Run one spec in this process: build (or continue *system*, a
    restored snapshot), instrument, run to completion or to
    ``spec.max_cycles``, record kernel meta, harvest.

    *instrument* is called with the system before it runs (the
    observability hook; it must not change simulated behaviour).  With
    *checkpoint_every* the run is sliced and snapshots to
    *checkpoint_path* at every boundary, completion included; a sliced
    run is cycle-identical to a straight one.
    """
    if system is None:
        system = spec.build()
    if instrument is not None:
        instrument(system)
    if checkpoint_every is not None:
        engine = system.engine
        while not system.all_cores_finished() \
                and engine.cycle < spec.max_cycles:
            system.run_until_done(min(spec.max_cycles,
                                      engine.cycle + checkpoint_every))
            if checkpoint_path is not None:
                snapshot_spec(spec, system, checkpoint_path, fingerprint)
    # The whole run, or, after the slices, only the kernel meta (it is
    # cumulative, so a sliced or resumed run records what a straight
    # one does).
    system.run_until_done(spec.max_cycles)
    return SweepResult.from_outcome(spec, fingerprint, spec.harvest(system))


def _pool_worker(item: Tuple[SystemSpec, str]) -> Dict[str, Any]:
    """Top-level (hence picklable) pool target: spec -> payload dict."""
    spec, fingerprint = item
    return execute_point(spec, fingerprint).payload()


@dataclass
class Plan:
    """What :func:`plan_points` decided for one batch of specs.

    ``results`` is in spec order with the cache hits filled in;
    ``pending`` maps each missing fingerprint to the spec indices it
    answers (the first simulates, the rest alias), insertion-ordered.
    ``hits``/``misses`` count one per *requested* point (a repeat of a
    pending point is its own miss); ``probed``: was there a cache to ask.
    """

    specs: List[SystemSpec]
    results: List[Optional[SweepResult]]
    probed: bool
    pending: Dict[str, List[int]] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    @property
    def cache_stats(self) -> Optional[Dict[str, int]]:
        """``{"hits", "misses"}`` as envelopes and job summaries carry
        them; None for an uncached batch."""
        if not self.probed:
            return None
        return {"hits": self.hits, "misses": self.misses}

    def to_run(self) -> List[Tuple[str, SystemSpec]]:
        """``(fingerprint, spec)`` of every point left to simulate."""
        return [(fingerprint, self.specs[indices[0]])
                for fingerprint, indices in self.pending.items()]

    def _fill(self, index: int, payload: Dict[str, Any],
              cached: bool) -> None:
        result = SweepResult.from_payload(payload, cached=cached)
        result.label = self.specs[index].label
        self.results[index] = result

    def resolve(self, fingerprint: str,
                payload: Dict[str, Any]) -> List[int]:
        """Fill every result *fingerprint* answers from its fresh
        *payload* (aliases of the simulated point are marked
        ``cached``); returns their spec indices."""
        indices = self.pending[fingerprint]
        for position, index in enumerate(indices):
            self._fill(index, payload, cached=position > 0)
        return indices


def plan_points(specs: Iterable[SystemSpec],
                lookup: Optional[Callable[[str], Optional[Dict[str, Any]]]]
                = None) -> Plan:
    """Fingerprint *specs* and sort them into hits and pending points.

    *lookup* (a cache backend's ``get``) is asked once per distinct
    fingerprint; without one every point is pending — still
    fingerprinted, because a result that cannot be matched back to the
    run that produced it is useless.  Hits carry the *requesting*
    spec's label.
    """
    specs = list(specs)
    plan = Plan(specs, [None] * len(specs), probed=lookup is not None)
    version = code_version()
    memo = KeyMemo()     # this call only: the configs are mutable
    answers: Dict[str, Optional[Dict[str, Any]]] = {}
    for index, spec in enumerate(specs):
        fingerprint = spec.fingerprint(version, memo)
        if fingerprint not in answers:
            answers[fingerprint] = lookup(fingerprint) if lookup else None
        payload = answers[fingerprint]
        if payload is None:
            plan.pending.setdefault(fingerprint, []).append(index)
            plan.misses += 1
        else:
            plan._fill(index, payload, cached=True)
            plan.hits += 1
    return plan


class SweepPointError(RuntimeError):
    """One or more sweep points failed permanently (after retries).

    ``failures`` maps fingerprint -> last error message; the exception
    text lists every failed point, so a partially-failed sweep is loud
    and attributable instead of a hang or a silent gap in the results.
    """

    def __init__(self, failures: Dict[str, str]) -> None:
        self.failures = dict(failures)
        lines = "".join(f"\n  {fp}: {error}"
                        for fp, error in self.failures.items())
        super().__init__(f"{len(self.failures)} sweep point(s) failed "
                         f"permanently:{lines}")


def _report_retry(event) -> None:
    if event[0] == "retry":
        print(f"warning: sweep point {event[1][:12]} attempt {event[2]} "
              f"failed ({event[3]}); retrying", file=sys.stderr)


def run_plan(specs: Iterable[SystemSpec],
             jobs: Optional[int] = None,
             cache: Union[None, bool, str, ResultCache] = None,
             retries: int = DEFAULT_RETRIES,
             point_timeout: Optional[float] = None) -> Plan:
    """Plan *specs* against the cache, simulate the pending points here
    (serially, or on up to *jobs* worker processes), write each back as
    it completes and return the resolved :class:`Plan` —
    :func:`run_sweep` for callers that also want the hit/miss counts."""
    jobs = jobs or 1
    resolved_cache = as_cache(cache)
    plan = plan_points(
        specs, resolved_cache.get if resolved_cache is not None else None)

    def finish(fingerprint: str, payload: Dict[str, Any]) -> None:
        # Written through as each point completes: a sweep that fails
        # one point keeps every point it computed.
        if resolved_cache is not None:
            resolved_cache.put(fingerprint, payload)
        plan.resolve(fingerprint, payload)

    def on_event(event) -> None:
        _report_retry(event)
        if event[0] == "done":
            finish(event[1], event[2])

    items = [(fingerprint, (spec, fingerprint))
             for fingerprint, spec in plan.to_run()]
    if jobs > 1 and len(items) > 1:
        _payloads, failed = run_points(items, _pool_worker,
                                       jobs=min(jobs, len(items)),
                                       retries=retries,
                                       timeout=point_timeout,
                                       on_event=on_event)
        if failed:
            failures = {fp: failed[fp] for fp in plan.pending
                        if fp in failed}
            for fp, error in failures.items():
                print(f"error: sweep point {fp} failed permanently: "
                      f"{error}", file=sys.stderr)
            raise SweepPointError(failures)
    else:
        for fingerprint, item in items:
            finish(fingerprint, _pool_worker(item))
    return plan


def run_sweep(specs: Iterable[SystemSpec],
              jobs: Optional[int] = None,
              cache: Union[None, bool, str, ResultCache] = None,
              retries: int = DEFAULT_RETRIES,
              point_timeout: Optional[float] = None,
              ) -> List[SweepResult]:
    """Execute *specs*, returning their rows in spec order.

    A point is a :class:`~repro.experiments.builders.SystemSpec`
    (:func:`~repro.experiments.builders.benchmark_spec` for a benchmark
    under one protocol).  The batch runs serially and uncached unless
    *jobs* / *cache* say otherwise (``cache=False`` is also no cache).
    In the parallel path a dying or ``point_timeout``-overrunning worker
    retries its point up to *retries* times; points that still fail
    raise :class:`SweepPointError` listing every failed fingerprint.
    """
    return run_plan(specs, jobs=jobs, cache=cache, retries=retries,
                    point_timeout=point_timeout).results
