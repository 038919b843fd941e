"""Sweep expansion and the (optionally parallel, optionally cached) runner.

A :class:`Sweep` expands a (config × benchmark × protocol × seed) matrix
into :class:`~repro.experiments.spec.RunSpec` points; :func:`run_sweep`
executes any iterable of specs and returns one structured
:class:`SweepResult` per spec, in spec order.

Execution strategy:

1. every spec is fingerprinted (config + workload + knobs + simulator
   source version) and looked up in the result cache, if one is active;
2. the misses run — serially for ``jobs=1``, otherwise fanned out over
   per-point worker processes (:mod:`repro.experiments.procpool`).
   Simulations are deterministic in the spec (engine RNG and trace
   generation are seeded; see ``tests/test_determinism.py``), so runs
   are embarrassingly parallel and a parallel sweep is bit-identical to
   a serial one.  A worker that dies mid-point (crash, OOM kill,
   timeout) does not lose the point: it retries up to ``retries`` times
   (default 1) and a point that keeps failing raises a loud
   :class:`SweepPointError` naming every failed fingerprint — never a
   hang, never a silent gap in the results;
3. fresh results are written back to the cache.

``SweepResult.payload()`` is the canonical serialized form: it is what
the cache stores, and byte-for-byte what a cache hit returns.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import (Any, Dict, Iterable, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from repro.core.api import RunResult, run_benchmark
from repro.core.config import ChipConfig
from repro.sim.statsframe import StatsFrame
from repro.experiments.builders import (SystemRunOutcome, SystemSpec,
                                        execute_system_spec)
from repro.experiments.cache import ResultCache, as_cache, code_version
from repro.experiments.context import get_context
from repro.experiments.procpool import DEFAULT_RETRIES, run_points
from repro.experiments.spec import KeyMemo, RunSpec
from repro.workloads.synthetic import WorkloadProfile

# 2: added the free-form "extra" dict (system-builder runs put litmus
# observations and similar non-scalar outcomes there).
PAYLOAD_SCHEMA = 2


@dataclass
class SweepResult:
    """One executed (or cache-recalled) sweep point.

    Contains no wall-clock or host-specific fields, so a fresh run and a
    cache hit of the same spec serialize identically (``cached`` is
    bookkeeping, not part of the payload).
    """

    fingerprint: str
    benchmark: str
    protocol: str
    n_cores: int
    seed: int
    runtime: int
    completed_ops: int
    progress: float
    stats: Dict[str, float] = field(default_factory=dict)
    # Free-form JSON-able outcome data beyond scalar stats (litmus
    # observations, per-run artifacts); part of the cached payload.
    extra: Dict[str, Any] = field(default_factory=dict)
    label: str = ""
    cached: bool = False

    @property
    def frame(self) -> StatsFrame:
        """Queryable :class:`~repro.sim.statsframe.StatsFrame` over
        :attr:`stats` — the structured alternative to prefix-slicing
        (cached; rebuilt if ``stats`` is reassigned)."""
        frame = self.__dict__.get("_frame")
        if frame is None or frame._stats is not self.stats:
            frame = StatsFrame(self.stats)
            self.__dict__["_frame"] = frame
        return frame

    def payload(self) -> Dict[str, Any]:
        """The canonical cacheable form.

        Excludes ``cached`` *and* ``label``: neither is part of the
        simulation outcome (label is display bookkeeping, set from the
        requesting spec on both the fresh and the cache-hit path), so a
        recalled result serializes byte-identically to a fresh one.
        """
        return {
            "schema": PAYLOAD_SCHEMA,
            "fingerprint": self.fingerprint,
            "benchmark": self.benchmark,
            "protocol": self.protocol,
            "n_cores": self.n_cores,
            "seed": self.seed,
            "runtime": self.runtime,
            "completed_ops": self.completed_ops,
            "progress": self.progress,
            "stats": self.stats,
            "extra": self.extra,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any],
                     cached: bool = False) -> "SweepResult":
        return cls(fingerprint=payload["fingerprint"],
                   benchmark=payload["benchmark"],
                   protocol=payload["protocol"],
                   n_cores=payload["n_cores"],
                   seed=payload["seed"],
                   runtime=payload["runtime"],
                   completed_ops=payload["completed_ops"],
                   progress=payload["progress"],
                   stats=dict(payload["stats"]),
                   extra=dict(payload.get("extra", {})),
                   label=payload.get("label", ""),
                   cached=cached)

    @classmethod
    def from_run(cls, spec: RunSpec, fingerprint: str,
                 result: RunResult) -> "SweepResult":
        return cls(fingerprint=fingerprint,
                   benchmark=result.benchmark,
                   protocol=result.protocol,
                   n_cores=result.n_cores,
                   seed=spec.seed,
                   runtime=result.runtime,
                   completed_ops=result.completed_ops,
                   progress=result.progress,
                   stats=dict(result.stats),
                   label=spec.label)

    @classmethod
    def from_outcome(cls, spec: SystemSpec, fingerprint: str,
                     outcome: SystemRunOutcome) -> "SweepResult":
        """Adapt a system-builder run (``protocol`` carries the builder
        name, ``benchmark`` the workload's display name)."""
        return cls(fingerprint=fingerprint,
                   benchmark=spec.benchmark_name,
                   protocol=spec.builder,
                   n_cores=spec.resolved_config().n_cores,
                   seed=spec.seed_value(),
                   runtime=outcome.runtime,
                   completed_ops=outcome.completed_ops,
                   progress=outcome.progress,
                   stats=dict(outcome.stats),
                   extra=dict(outcome.extra),
                   label=spec.label)

    def to_run_result(self) -> RunResult:
        """Adapt to the :class:`~repro.core.api.RunResult` interface the
        figure/analysis code is written against."""
        return RunResult(protocol=self.protocol, benchmark=self.benchmark,
                         n_cores=self.n_cores, runtime=self.runtime,
                         completed_ops=self.completed_ops,
                         progress=self.progress, stats=dict(self.stats))


@dataclass
class Sweep:
    """A (config × benchmark × protocol × seed) experiment matrix.

    ``configs`` may be one :class:`ChipConfig`, a sequence (labelled by
    index), or a mapping of label -> config; ``None`` means the default
    36-core chip.  Expansion order is configs, then benchmarks, then
    protocols, then seeds — deterministic, so sweep output order is too.
    """

    benchmarks: Sequence[Union[str, WorkloadProfile]]
    protocols: Sequence[str] = ("scorpio",)
    configs: Union[None, ChipConfig, Sequence[ChipConfig],
                   Mapping[str, ChipConfig]] = None
    seeds: Sequence[int] = (0,)
    ops_per_core: int = 150
    workload_scale: float = 1.0
    think_scale: float = 1.0
    max_cycles: int = 400_000

    def labelled_configs(self) -> List[Tuple[str, Optional[ChipConfig]]]:
        if self.configs is None or isinstance(self.configs, ChipConfig):
            return [("", self.configs)]
        if isinstance(self.configs, Mapping):
            return list(self.configs.items())
        return [(str(i), config) for i, config in enumerate(self.configs)]

    def expand(self) -> List[RunSpec]:
        specs: List[RunSpec] = []
        for label, config in self.labelled_configs():
            for benchmark in self.benchmarks:
                for protocol in self.protocols:
                    for seed in self.seeds:
                        specs.append(RunSpec(
                            benchmark=benchmark, protocol=protocol,
                            config=config, ops_per_core=self.ops_per_core,
                            workload_scale=self.workload_scale,
                            think_scale=self.think_scale, seed=seed,
                            max_cycles=self.max_cycles, label=label))
        return specs

    def __len__(self) -> int:
        return (len(self.labelled_configs()) * len(self.benchmarks)
                * len(self.protocols) * len(self.seeds))


def execute_spec(spec: RunSpec) -> RunResult:
    """Run one spec in this process (the cache/pool-free core)."""
    return run_benchmark(spec.benchmark, protocol=spec.protocol,
                         config=spec.config,
                         ops_per_core=spec.ops_per_core,
                         max_cycles=spec.max_cycles,
                         workload_scale=spec.workload_scale,
                         think_scale=spec.think_scale, seed=spec.seed)


def _pool_worker(item: Tuple[Union[RunSpec, SystemSpec], str]
                 ) -> Dict[str, Any]:
    """Top-level (hence picklable) pool target: spec -> payload dict."""
    spec, fingerprint = item
    if isinstance(spec, SystemSpec):
        outcome = execute_system_spec(spec)
        return SweepResult.from_outcome(spec, fingerprint, outcome).payload()
    result = execute_spec(spec)
    return SweepResult.from_run(spec, fingerprint, result).payload()


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


def run_sweep(sweep: Union[Sweep, Iterable[Union[RunSpec, SystemSpec]]],
              jobs: Optional[int] = None,
              cache: Union[None, bool, str, ResultCache] = None,
              retries: int = DEFAULT_RETRIES,
              point_timeout: Optional[float] = None,
              ) -> List[SweepResult]:
    """Execute a sweep (or any iterable of specs), in spec order.

    Specs may freely mix :class:`RunSpec` (``run_benchmark``-shaped
    points) and :class:`~repro.experiments.builders.SystemSpec`
    (registered system-builder points) in one batch.  ``jobs``/``cache``
    default to the process execution context (see
    :mod:`repro.experiments.context`); pass ``cache=False`` to bypass an
    active cache for one call.  In the parallel path a dying or
    ``point_timeout``-overrunning worker retries its point up to
    *retries* times; points that still fail raise
    :class:`SweepPointError` listing every failed fingerprint.
    """
    specs = sweep.expand() if isinstance(sweep, Sweep) else list(sweep)
    ctx = get_context()
    if jobs is None:
        jobs = ctx.jobs
    resolved_cache = ctx.cache if cache is None else as_cache(cache)

    results: List[Optional[SweepResult]] = [None] * len(specs)
    pending: List[Tuple[int, Union[RunSpec, SystemSpec], str]] = []
    duplicates: List[Tuple[int, Union[RunSpec, SystemSpec], str]] = []
    version = code_version()
    memo = KeyMemo()     # this call only: the configs are mutable
    if resolved_cache is None:
        # No cache to consult, but every result document still carries
        # its identity: an envelope with an elided fingerprint can never
        # be matched back to the run that produced it (or to a cached
        # rerun of the same point) after the fact.  code_version() is
        # memoized, so the cost is one hash per spec, not per call.
        pending = [(index, spec, spec.fingerprint(version, memo))
                   for index, spec in enumerate(specs)]
    else:
        first_pending: Dict[str, int] = {}
        for index, spec in enumerate(specs):
            fingerprint = spec.fingerprint(version, memo)
            payload = resolved_cache.get(fingerprint)
            if payload is not None:
                recalled = SweepResult.from_payload(payload, cached=True)
                recalled.label = spec.label
                results[index] = recalled
            elif fingerprint in first_pending:
                # Same point requested twice in one batch: simulate once,
                # alias the second occurrence to the first result.
                duplicates.append((index, spec, fingerprint))
            else:
                first_pending[fingerprint] = index
                pending.append((index, spec, fingerprint))

    if pending:
        if jobs > 1 and len(pending) > 1:
            # Keys are queue positions, not fingerprints: without a
            # cache, duplicate specs are not deduplicated and would
            # collide on the fingerprint.
            items = [(seq, (spec, fp))
                     for seq, (_i, spec, fp) in enumerate(pending)]

            def _report(event) -> None:
                if event[0] == "retry":
                    fp = pending[event[1]][2]
                    print(f"warning: sweep point {fp[:12]} attempt "
                          f"{event[2]} failed ({event[3]}); retrying",
                          file=sys.stderr)

            by_seq, failed = run_points(items, _pool_worker,
                                        jobs=min(jobs, len(pending)),
                                        retries=retries,
                                        timeout=point_timeout,
                                        on_event=_report)
            if failed:
                failures = {pending[seq][2]: error
                            for seq, error in sorted(failed.items())}
                for fp, error in failures.items():
                    print(f"error: sweep point {fp} failed permanently: "
                          f"{error}", file=sys.stderr)
                raise SweepPointError(failures)
            payloads = [by_seq[seq] for seq in range(len(pending))]
        else:
            payloads = [_pool_worker((spec, fp))
                        for _i, spec, fp in pending]
        computed: Dict[str, Dict[str, Any]] = {}
        for (index, spec, fingerprint), payload in zip(pending, payloads):
            fresh = SweepResult.from_payload(payload)
            fresh.label = spec.label
            results[index] = fresh
            if resolved_cache is not None:
                resolved_cache.put(fingerprint, payload)
                computed[fingerprint] = payload
        for index, spec, fingerprint in duplicates:
            alias = SweepResult.from_payload(computed[fingerprint],
                                             cached=True)
            alias.label = spec.label
            results[index] = alias

    return results  # type: ignore[return-value]


def run_grid(benchmarks: Sequence[Union[str, WorkloadProfile]],
             protocols: Sequence[str],
             config: Optional[ChipConfig] = None,
             jobs: Optional[int] = None,
             cache: Union[None, bool, str, ResultCache] = None,
             **knobs) -> Dict[Union[str, WorkloadProfile],
                              Dict[str, RunResult]]:
    """A benchmark × protocol grid in one sweep batch, reshaped to
    ``{benchmark: {protocol: RunResult}}``.

    The shared backend for the figure generators, the benchmark
    harness's ``sweep_grid``, and :func:`sweep_compare`; extra *knobs*
    (``ops_per_core``, ``seed``, ...) pass straight into each
    :class:`~repro.experiments.spec.RunSpec`.
    """
    specs = [RunSpec(benchmark=benchmark, protocol=protocol, config=config,
                     **knobs)
             for benchmark in benchmarks for protocol in protocols]
    results = iter(run_sweep(specs, jobs=jobs, cache=cache))
    return {benchmark: {protocol: next(results).to_run_result()
                        for protocol in protocols}
            for benchmark in benchmarks}


def sweep_compare(benchmark: Union[str, WorkloadProfile],
                  protocols: Sequence[str],
                  config: Optional[ChipConfig] = None,
                  ops_per_core: int = 150,
                  workload_scale: float = 1.0,
                  think_scale: float = 1.0,
                  seed: int = 0,
                  max_cycles: int = 400_000,
                  jobs: Optional[int] = None,
                  cache: Union[None, bool, str, ResultCache] = None,
                  ) -> Dict[str, RunResult]:
    """One benchmark under several protocols via the sweep runner — the
    engine behind :func:`repro.core.api.compare_protocols`."""
    grid = run_grid([benchmark], tuple(protocols), config=config,
                    jobs=jobs, cache=cache, ops_per_core=ops_per_core,
                    workload_scale=workload_scale,
                    think_scale=think_scale, seed=seed,
                    max_cycles=max_cycles)
    return grid[benchmark]
