"""High-level API: build and run full-system experiments in a few lines.

    from repro.core import ChipConfig, run_benchmark

    result = run_benchmark("barnes", protocol="scorpio",
                           config=ChipConfig.chip_36core(),
                           ops_per_core=200)
    print(result.runtime, result.avg_l2_service_latency)

This is the layer the examples and the benchmark harness are written
against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from repro.core.config import ChipConfig
from repro.sim.statsframe import StatsFrame
from repro.workloads.suites import profile as lookup_profile
from repro.workloads.synthetic import (WorkloadProfile,
                                       generate_system_traces, scaled)

PROTOCOLS = ("scorpio", "lpd", "ht", "fullbit")


@dataclass
class RunResult:
    """Outcome of one full-system run.

    ``stats`` is the raw flat snapshot (kept for payload compatibility);
    :attr:`frame` is the structured query interface over it — new code
    should read stats through the frame rather than prefix-slicing the
    dict.  The named latency properties and :meth:`breakdown` remain as
    stable shims, themselves implemented on the frame.
    """

    protocol: str
    benchmark: str
    n_cores: int
    runtime: int                  # cycles until every core finished
    completed_ops: int
    progress: float               # 1.0 when every trace fully ran
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def frame(self) -> StatsFrame:
        """Queryable :class:`~repro.sim.statsframe.StatsFrame` over
        :attr:`stats` (cached; rebuilt if ``stats`` is reassigned)."""
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


def build_system(protocol: str, traces, config: Optional[ChipConfig] = None):
    """Instantiate a full system of the given *protocol* through the
    builder registry (:mod:`repro.experiments.builders`), where each
    system's constructor arguments are spelled once."""
    from repro.experiments.builders import get_builder
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; expected one of "
                         f"{PROTOCOLS}")
    if protocol == "scorpio":
        builder, given = get_builder("scorpio"), {}
    else:
        builder, given = get_builder("directory"), {"scheme": protocol.upper()}
    return builder.construct(config or ChipConfig.chip_36core(),
                             builder.resolved_params(given), traces)


def build_benchmark_system(benchmark: Union[str, WorkloadProfile],
                           protocol: str = "scorpio",
                           config: Optional[ChipConfig] = None,
                           ops_per_core: int = 150,
                           workload_scale: float = 1.0,
                           think_scale: float = 1.0,
                           seed: int = 0):
    """Construct — but do not run — the system for one benchmark run.

    The checkpointable form of :func:`run_benchmark`: snapshot the
    returned system at any point between runs, restore it elsewhere, and
    :func:`collect_run_result` harvests the same :class:`RunResult` a
    straight run would have produced."""
    config = config or ChipConfig.chip_36core()
    if isinstance(benchmark, str):
        prof = lookup_profile(benchmark)
    else:
        prof = benchmark
    if workload_scale != 1.0 or think_scale != 1.0:
        prof = scaled(prof, workload_scale, think_scale)
    traces = generate_system_traces(prof, config.n_cores, ops_per_core,
                                    seed=seed)
    system = build_system(protocol, traces, config)
    system.benchmark_name = prof.name
    return system


def collect_run_result(system, protocol: str,
                       benchmark_name: Optional[str] = None) -> RunResult:
    """Harvest the :class:`RunResult` from a finished system (built by
    :func:`build_benchmark_system`, possibly restored from a checkpoint)."""
    return RunResult(
        protocol=protocol,
        benchmark=(benchmark_name if benchmark_name is not None
                   else getattr(system, "benchmark_name", "")),
        n_cores=system.n_nodes,
        runtime=system.engine.cycle,
        completed_ops=system.total_completed_ops(),
        progress=system.progress(),
        stats=system.stats.snapshot(),
    )


def run_benchmark(benchmark: Union[str, WorkloadProfile],
                  protocol: str = "scorpio",
                  config: Optional[ChipConfig] = None,
                  ops_per_core: int = 150,
                  max_cycles: int = 400_000,
                  workload_scale: float = 1.0,
                  think_scale: float = 1.0,
                  seed: int = 0) -> RunResult:
    """Run one benchmark under one protocol and collect the statistics.

    ``max_cycles`` mirrors the paper's 400 K-cycle trace-driven windows;
    runs normally finish far earlier.  ``workload_scale`` shrinks the
    synthetic footprints for quick runs.
    """
    system = build_benchmark_system(benchmark, protocol=protocol,
                                    config=config, ops_per_core=ops_per_core,
                                    workload_scale=workload_scale,
                                    think_scale=think_scale, seed=seed)
    system.run_until_done(max_cycles)
    return collect_run_result(system, protocol)


def run_trace_file(path, protocol: str = "scorpio",
                   config: Optional[ChipConfig] = None,
                   max_cycles: int = 400_000) -> RunResult:
    """Run an externally produced trace file (see
    :mod:`repro.cpu.tracefile`) under one protocol — the equivalent of
    the paper's Graphite-traces-into-RTL flow."""
    from repro.cpu.tracefile import load_traces
    config = config or ChipConfig.chip_36core()
    traces = load_traces(path, expect_cores=config.n_cores)
    system = build_system(protocol, traces, config)
    system.run_until_done(max_cycles)
    return collect_run_result(system, protocol, benchmark_name=str(path))


def compare_protocols(benchmark: str,
                      protocols=PROTOCOLS,
                      config: Optional[ChipConfig] = None,
                      ops_per_core: int = 150,
                      workload_scale: float = 1.0,
                      think_scale: float = 1.0,
                      seed: int = 0,
                      max_cycles: int = 400_000) -> Dict[str, RunResult]:
    """Run the same workload under several protocols (Fig. 6a rows).

    Routed through the sweep runner (:mod:`repro.experiments`), so it
    honours the process execution context: with ``REPRO_JOBS``/
    ``REPRO_CACHE_DIR`` set (or :func:`repro.experiments.configure`
    called), the per-protocol runs fan out across workers and recall
    cached results.  Defaults reproduce the historical serial behaviour.
    """
    from repro.experiments.sweep import sweep_compare
    return sweep_compare(benchmark, tuple(protocols), config=config,
                         ops_per_core=ops_per_core,
                         workload_scale=workload_scale,
                         think_scale=think_scale, seed=seed,
                         max_cycles=max_cycles)


def normalized_runtimes(results: Dict[str, RunResult],
                        baseline: str = "lpd") -> Dict[str, float]:
    """Runtimes normalized to *baseline* (the paper normalizes to LPD-D)."""
    base = results[baseline].runtime
    if base <= 0:
        raise ValueError("baseline runtime is zero")
    return {name: result.runtime / base for name, result in results.items()}
