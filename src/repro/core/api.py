"""High-level API: run full-system experiments in a few lines, and the
one result row every door returns.

    from repro.core import ChipConfig, run_benchmark

    result = run_benchmark("barnes", protocol="scorpio",
                           config=ChipConfig.chip_36core(),
                           ops_per_core=200)
    print(result.runtime, result.avg_l2_service_latency)

This is the layer the examples and the benchmark harness are written
against.  :func:`run_benchmark` and :func:`run_trace_file` are thin
constructors over the execution pipeline (:mod:`repro.experiments.sweep`:
a benchmark- or trace-workload ``SystemSpec`` through ``execute_point``).
:class:`RunResult` lives here, below the experiment layer, so that
layer, the analysis code and the public API share one row class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple, Union

from repro.core.config import ChipConfig
from repro.sim.statsframe import StatsFrame
from repro.workloads.synthetic import WorkloadProfile

if TYPE_CHECKING:
    from repro.experiments.builders import SystemSpec
    from repro.experiments.spec import SystemRunOutcome

PROTOCOLS = ("scorpio", "lpd", "ht", "fullbit")

# 2: added the free-form "extra" dict (system-builder runs put litmus
# observations and similar non-scalar outcomes there).
PAYLOAD_SCHEMA = 2


@dataclass
class RunResult:
    """One executed (or cache-recalled) simulation point — the result
    row of every door (``repro.experiments.SweepResult`` is this class).

    Contains no wall-clock or host-specific fields, so a fresh run and a
    cache hit of the same spec serialize identically and compare equal
    (``cached`` is bookkeeping: not in the payload, not compared).
    ``stats`` is the raw flat snapshot; :attr:`frame` is the structured
    query interface over it, and the named latency properties and
    :meth:`breakdown` are readers on the frame.
    """

    protocol: str                 # a system-builder run: the builder name
    benchmark: str
    n_cores: int
    runtime: int                  # cycles until every core finished
    completed_ops: int
    progress: float               # 1.0 when every trace fully ran
    stats: Dict[str, float] = field(default_factory=dict)
    # Free-form JSON-able outcome data beyond scalar stats (litmus
    # observations, per-run artifacts); part of the cached payload.
    extra: Dict[str, Any] = field(default_factory=dict)
    fingerprint: str = ""
    seed: int = 0
    label: str = ""
    cached: bool = field(default=False, compare=False)

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

    @property
    def avg_l2_service_latency(self) -> float:
        return self.frame.value("l2.miss_latency.mean")

    @property
    def cache_served_latency(self) -> float:
        return self.frame.value("l2.miss_latency.cache.mean")

    @property
    def memory_served_latency(self) -> float:
        return self.frame.value("l2.miss_latency.memory.mean")

    def breakdown(self, served: str = "cache") -> Dict[str, float]:
        """Latency decomposition (Fig. 6b/6c categories) in mean cycles."""
        return self.frame.relative_to(f"l2.breakdown.{served}.").mean

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
                     cached: bool = False) -> "RunResult":
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
    def from_outcome(cls, spec: "SystemSpec", fingerprint: str,
                     outcome: "SystemRunOutcome") -> "RunResult":
        """The result row of *spec*'s harvested *outcome* (``protocol``
        is the spec's protocol, else its builder name; ``benchmark`` the
        workload's display name)."""
        return cls(fingerprint=fingerprint,
                   benchmark=spec.benchmark_name,
                   protocol=spec.protocol_name,
                   n_cores=spec.resolved_config().n_cores,
                   seed=spec.seed_value(),
                   runtime=outcome.runtime,
                   completed_ops=outcome.completed_ops,
                   progress=outcome.progress,
                   stats=dict(outcome.stats),
                   extra=dict(outcome.extra),
                   label=spec.label)


# The keys every result payload holds.
PAYLOAD_KEYS = frozenset(RunResult("", "", 0, 0, 0, 0.0).payload())


def builder_of(protocol: str) -> Tuple[str, Dict[str, Any]]:
    """The registered builder name and params of *protocol*."""
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; expected one of "
                         f"{PROTOCOLS}")
    if protocol == "scorpio":
        return "scorpio", {}
    return "directory", {"scheme": protocol.upper()}


def build_system(protocol: str, traces, config: Optional[ChipConfig] = None):
    """Instantiate a full system of the given *protocol* through the
    builder registry (:mod:`repro.experiments.builders`)."""
    from repro.experiments.builders import get_builder
    name, given = builder_of(protocol)
    builder = get_builder(name)
    return builder.system_class(config or ChipConfig.chip_36core(), traces,
                                **builder.resolved_params(given))


def run_benchmark(benchmark: Union[str, WorkloadProfile],
                  protocol: str = "scorpio",
                  config: Optional[ChipConfig] = None,
                  ops_per_core: int = 150,
                  max_cycles: int = 400_000,
                  workload_scale: float = 1.0,
                  think_scale: float = 1.0,
                  seed: int = 0) -> RunResult:
    """Run one benchmark under one protocol and collect the statistics:
    :func:`~repro.experiments.sweep.execute_point` of its
    :func:`~repro.experiments.builders.benchmark_spec`, in this process,
    uncached (the row's ``fingerprint`` stays empty).

    ``max_cycles`` mirrors the paper's 400 K-cycle trace-driven windows;
    runs normally finish far earlier.  ``workload_scale`` shrinks the
    synthetic footprints for quick runs.
    """
    from repro.experiments.builders import benchmark_spec
    from repro.experiments.sweep import execute_point
    return execute_point(benchmark_spec(
        benchmark, protocol, config, max_cycles=max_cycles,
        ops_per_core=ops_per_core, workload_scale=workload_scale,
        think_scale=think_scale, seed=seed))


def run_trace_file(path, protocol: str = "scorpio",
                   config: Optional[ChipConfig] = None,
                   max_cycles: int = 400_000) -> RunResult:
    """Run an externally produced trace file (see
    :mod:`repro.cpu.tracefile`) under one protocol — the equivalent of
    the paper's Graphite-traces-into-RTL flow: ``execute_point`` of a
    ``trace``-workload :class:`~repro.experiments.builders.SystemSpec`,
    uncached.  The row's ``protocol`` is *protocol* as passed."""
    from repro.experiments.builders import SystemSpec
    from repro.experiments.sweep import execute_point
    builder, params = builder_of(protocol)
    return execute_point(SystemSpec(
        builder, config, params=params,
        workload={"kind": "trace", "path": str(path)},
        max_cycles=max_cycles, protocol=protocol))


def normalized_runtimes(results: Dict[str, RunResult],
                        baseline: str = "lpd") -> Dict[str, float]:
    """Runtimes normalized to *baseline* (the paper normalizes to LPD-D)."""
    base = results[baseline].runtime
    if base <= 0:
        raise ValueError("baseline runtime is zero")
    return {name: result.runtime / base for name, result in results.items()}
