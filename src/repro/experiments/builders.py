"""System-builder registry: declarative specs for arbitrary full systems.

:class:`~repro.experiments.spec.RunSpec` covers exactly the
``run_benchmark`` shape — one protocol out of the high-level API on one
chip config.  Everything else the evaluation builds by hand (the Fig. 7
ordered-network baselines, the Sec. 2 Timestamp/Uncorq critiques, INCF
on/off ablations, lock-contention runs, litmus programs) used to
construct systems imperatively and therefore ran serially and uncached.

A :class:`SystemSpec` closes that gap: it *names* a registered builder
plus JSON-able builder params and a declarative workload, so any system
construction becomes a picklable, fingerprintable unit of work that
:func:`repro.experiments.sweep.run_sweep` can fan out across processes
and answer from the on-disk result cache.  The registry is introspectable
(``repro sweep --list-builders``) and extensible: registering a builder
is all it takes for a new system variant to be sweepable.

Fingerprint contract: two SystemSpecs with equal fingerprints run the
same builder with the same resolved params on the same expanded config
against the same resolved workload — the same determinism guarantee
RunSpec gives for benchmark runs (see tests/test_golden_stats.py for the
regression lock on the underlying cycle-level behaviour).
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.config import ChipConfig
from repro.experiments.spec import (SPEC_SCHEMA, KeyMemo, PointSpec,
                                    SystemRunOutcome)

# ---------------------------------------------------------------------------
# Declarative workloads
# ---------------------------------------------------------------------------

class _Required:
    """Sentinel default marking a parameter the caller must supply
    (``None`` itself is a legitimate default, e.g. timestamp's slack)."""

    def __repr__(self) -> str:   # pragma: no cover - repr only
        return "<required>"


REQUIRED = _Required()

# kind -> {param: default}; a ``REQUIRED`` default must be supplied.
WORKLOAD_KINDS: Dict[str, Dict[str, Any]] = {
    # Synthetic benchmark traffic (the run_benchmark shape).
    "benchmark": {"name": REQUIRED, "ops_per_core": 150,
                  "workload_scale": 1.0, "think_scale": 1.0, "seed": 0},
    # Lock handoff under contention (repro.workloads.locks).
    "locks": {"acquisitions_per_core": 4, "critical_ops": 3,
              "shared_lines": 4, "think": 5, "seed": 0},
    # Sense-reversing barrier phases (repro.workloads.locks).
    "barrier": {"phases": 3, "compute_ops": 5, "private_lines": 16,
                "think": 4, "seed": 0},
    # One store on one core, everyone else idle (the Sec. 2 Uncorq probe).
    "lone_write": {"addr": 0x4000_0000, "node": 0},
    # A trace file (repro.cpu.tracefile): the Graphite-traces flow.
    "trace": {"path": REQUIRED},
    # No trace-driven cores at all (litmus runs attach their own cores).
    "idle": {},
}


def _merge_params(kind: str, given: Mapping[str, Any],
                  defaults: Mapping[str, Any], what: str) -> Dict[str, Any]:
    unknown = sorted(set(given) - set(defaults))
    if unknown:
        raise ValueError(f"unknown {what} parameter(s) {unknown} for "
                         f"{kind!r}; known: {sorted(defaults)}")
    # A given value has exactly its default's type (so a bool is not an
    # int), or is an int where the default is a float; None and REQUIRED
    # defaults name no type.
    for name, value in given.items():
        default = defaults[name]
        if type(value) is type(default) or default is None \
                or (type(default) is float and type(value) is int) \
                or isinstance(default, _Required):
            continue
        raise ValueError(f"{what} parameter {name!r} of {kind!r} must be "
                         f"{type(default).__name__}, got {value!r}")
    merged = {**defaults, **given}
    missing = sorted(name for name, value in merged.items()
                     if isinstance(value, _Required))
    if missing:
        raise ValueError(f"{what} {kind!r} requires {missing}")
    return merged


@dataclass(frozen=True)
class ResolvedWorkload:
    """A workload dict resolved against a config: display name, the
    canonical (fingerprintable) form, and a trace factory."""

    name: str
    key: Dict[str, Any]
    build_traces: Callable[[int], list]


def resolve_workload(workload: Mapping[str, Any],
                     memo: Optional[KeyMemo] = None) -> ResolvedWorkload:
    """Resolve a declarative workload dict (``{"kind": ..., ...}``).

    The canonical key embeds the *resolved* profile for benchmark
    workloads, so editing a suite profile invalidates cached results —
    the same rule :meth:`RunSpec.key` applies.  A trace workload's key
    is its path as given plus the sha256 of the file's bytes, and its
    traces are parsed from exactly those bytes, so an edited file never
    answers from the cache.
    """
    workload = dict(workload) if workload else {"kind": "idle"}
    kind = workload.pop("kind", None)
    if kind not in WORKLOAD_KINDS:
        raise ValueError(f"unknown workload kind {kind!r}; known: "
                         f"{sorted(WORKLOAD_KINDS)}")
    params = _merge_params(kind, workload, WORKLOAD_KINDS[kind], "workload")

    if kind == "benchmark":
        from repro.workloads.suites import benchmark_workload
        prof, build_traces = benchmark_workload(
            params["name"], params["ops_per_core"],
            params["workload_scale"], params["think_scale"], params["seed"])
        key = {"kind": kind,
               "profile": (memo or KeyMemo()).profile_dict(prof),
               "ops_per_core": params["ops_per_core"],
               "seed": params["seed"]}
        return ResolvedWorkload(name=prof.name, key=key,
                                build_traces=build_traces)

    if kind == "locks":
        from repro.workloads.locks import lock_contention_traces
        key = {"kind": kind, **params}
        return ResolvedWorkload(
            name="locks", key=key,
            build_traces=lambda n: lock_contention_traces(
                n, acquisitions_per_core=params["acquisitions_per_core"],
                critical_ops=params["critical_ops"],
                shared_lines=params["shared_lines"],
                think=params["think"], seed=params["seed"]))

    if kind == "barrier":
        from repro.workloads.locks import barrier_traces
        key = {"kind": kind, **params}
        return ResolvedWorkload(
            name="barrier", key=key,
            build_traces=lambda n: barrier_traces(
                n, phases=params["phases"],
                compute_ops=params["compute_ops"],
                private_lines=params["private_lines"],
                think=params["think"], seed=params["seed"]))

    if kind == "lone_write":
        from repro.cpu.trace import Trace, TraceOp
        key = {"kind": kind, **params}

        def lone(n: int):
            if not 0 <= params["node"] < n:
                raise ValueError(f"lone_write node {params['node']} outside "
                                 f"the {n}-core system")
            return [Trace([TraceOp("W", params["addr"], 1)])
                    if node == params["node"] else Trace([])
                    for node in range(n)]

        return ResolvedWorkload(name="lone-write", key=key,
                                build_traces=lone)

    if kind == "trace":
        from repro.cpu.tracefile import load_traces
        path = params["path"]
        if not isinstance(path, str):
            raise ValueError(f"trace path must be a string, got {path!r}")
        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            raise ValueError(f"cannot read trace file: {exc}") from exc
        key = {"kind": kind, "path": path,
               "sha256": hashlib.sha256(data).hexdigest()}
        return ResolvedWorkload(
            name=path, key=key,
            build_traces=lambda n: load_traces(
                io.TextIOWrapper(io.BytesIO(data), encoding="ascii"),
                expect_cores=n))

    # idle
    from repro.cpu.trace import Trace
    return ResolvedWorkload(name="idle", key={"kind": kind},
                            build_traces=lambda n: [Trace([])
                                                    for _ in range(n)])


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SystemBuilder:
    """One registered way to assemble (and run) a full system.

    ``construct(config, params, traces)`` returns a system exposing the
    :class:`~repro.systems.base.BaseSystem` run interface; ``metrics``
    optionally harvests system-level numbers that live outside the stats
    registry (reorder-buffer peaks, ring latencies) into the result's
    stats under ``system.<name>`` keys.
    """

    name: str
    description: str
    defaults: Mapping[str, Any] = field(default_factory=dict)
    construct: Optional[Callable[..., Any]] = None
    metrics: Optional[Callable[[Any], Dict[str, float]]] = None
    # Builders with a fundamentally different construction/harvest shape
    # (litmus) supply these instead of ``construct``; the run phase is
    # always ``execute_point``'s, so every builder can checkpoint.
    build: Optional[Callable[..., Any]] = None
    collect: Optional[Callable[..., SystemRunOutcome]] = None

    def resolved_params(self, given: Mapping[str, Any]) -> Dict[str, Any]:
        return _merge_params(self.name, given, self.defaults, "builder")


BUILDERS: Dict[str, SystemBuilder] = {}


def register_builder(name: str, description: str,
                     defaults: Optional[Mapping[str, Any]] = None,
                     metrics: Optional[Callable] = None,
                     build: Optional[Callable] = None,
                     collect: Optional[Callable] = None):
    """Register builder *name*.  Used as a decorator, the decorated
    function is its trace-driven constructor.  Given ``build`` (and
    ``collect``) instead, the builder has no constructor and the call
    registers it outright — there is nothing to decorate."""

    def register(construct=None):
        BUILDERS[name] = SystemBuilder(
            name=name, description=description, defaults=dict(defaults or {}),
            construct=construct, metrics=metrics, build=build,
            collect=collect)
        return construct

    if build is None:
        return register
    register()


def get_builder(name: str) -> SystemBuilder:
    try:
        return BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown system builder {name!r}; known: "
                       f"{builder_names()}") from None


def builder_names() -> List[str]:
    return sorted(BUILDERS)


def list_builders() -> List[Tuple[str, str, Dict[str, Any]]]:
    """(name, description, param defaults) rows for CLI introspection."""
    return [(name, BUILDERS[name].description, dict(BUILDERS[name].defaults))
            for name in builder_names()]


def workload_kinds() -> List[Tuple[str, Dict[str, Any]]]:
    """(kind, param defaults) rows for the declarative workloads a
    ``SystemSpec`` (or experiment document) may name; ``<required>``
    marks parameters the caller must supply."""
    return [(kind, dict(WORKLOAD_KINDS[kind]))
            for kind in sorted(WORKLOAD_KINDS)]


# ---------------------------------------------------------------------------
# SystemSpec
# ---------------------------------------------------------------------------

@dataclass
class SystemSpec(PointSpec):
    """One (builder, params, config, workload) simulation point.

    The sweep-layer sibling of :class:`RunSpec` for systems outside the
    ``run_benchmark`` shape; accepted anywhere ``run_sweep`` accepts
    specs, with the same fingerprint/cache semantics.
    """

    builder: str
    config: Optional[ChipConfig] = None
    params: Dict[str, Any] = field(default_factory=dict)
    workload: Dict[str, Any] = field(default_factory=dict)
    max_cycles: int = 400_000
    # Display bookkeeping, not part of the fingerprint.
    label: str = ""

    kind = "system"

    @property
    def protocol_name(self) -> str:
        """The result row's ``protocol`` column: the builder name."""
        return self.builder

    @property
    def benchmark_name(self) -> str:
        """The workload display name carried into the result row.

        An idle workload says nothing about the run, so it falls through
        to the builder params' ``name`` (litmus specs report the program
        name whether or not the idle workload is spelled explicitly).
        """
        if self.workload:
            name = resolve_workload(self.workload).name
            if name != "idle":
                return name
        if self.params.get("name") is not None:
            return str(self.params["name"])
        return self.builder

    def seed_value(self) -> int:
        for source in (self.workload, self.params):
            if "seed" in source:
                return int(source["seed"])
        return 0

    def key(self, memo: Optional[KeyMemo] = None) -> Dict[str, Any]:
        builder = get_builder(self.builder)
        memo = memo or KeyMemo()
        return {
            "schema": SPEC_SCHEMA,
            "kind": "system",
            "builder": self.builder,
            "params": builder.resolved_params(self.params),
            "workload": resolve_workload(self.workload, memo).key,
            "config": memo.config_dict(self.config),
            "max_cycles": self.max_cycles,
        }

    def build(self):
        return build_spec_system(self)

    def harvest(self, system) -> SystemRunOutcome:
        return collect_spec_outcome(self, system)


def build_spec_system(spec: SystemSpec):
    """Construct — but do not run — the system for *spec*.

    This is the object a checkpoint snapshots: everything the run will
    mutate (engine, NoC, caches, cores) hangs off it."""
    builder = get_builder(spec.builder)
    config = spec.resolved_config()
    params = builder.resolved_params(spec.params)
    if builder.build is not None:
        return builder.build(spec, config, params)
    resolved = resolve_workload(spec.workload)
    traces = resolved.build_traces(config.n_cores)
    return builder.construct(config, params, traces)


def collect_spec_outcome(spec: SystemSpec, system) -> SystemRunOutcome:
    """Harvest the :class:`SystemRunOutcome` from a finished *system*.

    Works identically whether the system ran start-to-finish in one
    process or was restored from a checkpoint and resumed."""
    builder = get_builder(spec.builder)
    if builder.collect is not None:
        return builder.collect(spec, system)
    outcome = PointSpec.harvest(spec, system)
    if builder.metrics is not None:
        for name, value in builder.metrics(system).items():
            outcome.stats[f"system.{name}"] = float(value)
    return outcome


def execute_system_spec(spec: SystemSpec, instrument=None):
    """Run one system spec in this process, uncached:
    :func:`~repro.experiments.sweep.execute_point` and the result row it
    makes (``fingerprint`` left empty).

    *instrument*, when given, is called with the freshly built system
    before it runs — the hook the observability layer uses to attach a
    journal and sampler.  Instrumentation must not change simulated
    behaviour; the report path cross-checks the instrumented outcome
    against the uninstrumented envelope to enforce that.
    """
    from repro.experiments.sweep import execute_point
    return execute_point(spec, instrument=instrument)


# ---------------------------------------------------------------------------
# Registered builders
# ---------------------------------------------------------------------------
# System imports stay inside the constructors: the registry is imported
# by the experiment layer's __init__, and most callers never build most
# systems.

@register_builder(
    "scorpio",
    "SCORPIO ordered-mesh snoopy MOSI (the paper's fabricated design)")
def _build_scorpio(config: ChipConfig, params, traces):
    from repro.systems.scorpio import ScorpioSystem
    return ScorpioSystem(traces=traces, notification=config.notification,
                         **config.system_kwargs())


@register_builder(
    "directory",
    "distributed-directory baseline (LPD-D / HT-D / FULLBIT, "
    "optional INCF)",
    defaults={"scheme": "LPD", "incf": False, "incf_table_capacity": None})
def _build_directory(config: ChipConfig, params, traces):
    from repro.coherence.directory import DirectoryConfig
    from repro.systems.directory import DirectorySystem
    scheme = str(params["scheme"]).upper()
    dir_config = DirectoryConfig(
        scheme=scheme, n_nodes=config.noc.n_nodes,
        total_cache_bytes=config.directory_cache_bytes,
        line_size=config.noc.line_size_bytes)
    return DirectorySystem(scheme=scheme, traces=traces,
                           directory=dir_config, incf=params["incf"],
                           incf_table_capacity=params["incf_table_capacity"],
                           **config.system_kwargs())


@register_builder(
    "multimesh",
    "SCORPIO with N replicated main meshes (Sec. 5.3 scaling proposal)",
    defaults={"n_meshes": 2})
def _build_multimesh(config: ChipConfig, params, traces):
    from repro.systems.multimesh import MultiMeshScorpioSystem
    return MultiMeshScorpioSystem(traces=traces,
                                  n_meshes=params["n_meshes"],
                                  notification=config.notification,
                                  **config.system_kwargs())


@register_builder(
    "tokenb",
    "TokenB-like unordered broadcast, races resolved by retry (Fig. 7)",
    defaults={"retry_timeout": 400, "incf": False})
def _build_tokenb(config: ChipConfig, params, traces):
    from repro.ordering_baselines.systems import TokenBSystem
    return TokenBSystem(traces=traces,
                        retry_timeout=params["retry_timeout"],
                        incf=params["incf"], **config.system_kwargs())


@register_builder(
    "inso",
    "INSO snoopy coherence with pre-assigned expiring slots (Fig. 7)",
    defaults={"expiration_window": 20})
def _build_inso(config: ChipConfig, params, traces):
    from repro.ordering_baselines.systems import InsoSystem
    return InsoSystem(traces=traces,
                      expiration_window=params["expiration_window"],
                      **config.system_kwargs())


def _timestamp_metrics(system) -> Dict[str, float]:
    return {"reorder_buffer_peak": system.reorder_buffer_peak(),
            "late_arrivals": system.late_arrivals()}


@register_builder(
    "timestamp",
    "Timestamp Snooping with destination reorder buffers (Sec. 2)",
    defaults={"slack": None}, metrics=_timestamp_metrics)
def _build_timestamp(config: ChipConfig, params, traces):
    from repro.ordering_baselines.systems import TimestampSystem
    return TimestampSystem(traces=traces, slack=params["slack"],
                           **config.system_kwargs())


def _uncorq_metrics(system) -> Dict[str, float]:
    return {"ring_traversal_latency": system.ring_traversal_latency()}


@register_builder(
    "uncorq",
    "Uncorq: unordered snoops + response ring, writes wait a circuit "
    "(Sec. 2)",
    defaults={"ring_hop_latency": 2, "retry_timeout": 400},
    metrics=_uncorq_metrics)
def _build_uncorq(config: ChipConfig, params, traces):
    from repro.ordering_baselines.systems import UncorqSystem
    return UncorqSystem(traces=traces,
                        ring_hop_latency=params["ring_hop_latency"],
                        retry_timeout=params["retry_timeout"],
                        **config.system_kwargs())


def _litmus_build(spec: SystemSpec, config: ChipConfig,
                  params: Mapping[str, Any]):
    from repro.verification.litmus import (LitmusProgram,
                                           build_litmus_system)
    program = LitmusProgram(
        name=params["name"],
        threads=[[(op, var) for op, var in thread]
                 for thread in params["threads"]])
    return build_litmus_system(program, width=config.noc.width,
                               height=config.noc.height,
                               seed=params["seed"],
                               protocol=params["protocol"])


def _litmus_collect(spec: SystemSpec, system) -> SystemRunOutcome:
    from repro.verification.litmus import litmus_observations
    if not system.all_cores_finished():
        raise RuntimeError(
            f"litmus {spec.params.get('name', '?')} did not finish")
    observations = litmus_observations(system)
    return SystemRunOutcome(
        runtime=system.engine.cycle, completed_ops=len(observations),
        progress=1.0, stats={},
        extra={"observations": [[o.core, o.index, o.op, o.var, o.version]
                                for o in observations]})


register_builder(
    "litmus",
    "memory-consistency litmus program on a live system (SC checker runs "
    "on the collected observations)",
    defaults={"name": REQUIRED, "threads": REQUIRED, "protocol": "scorpio",
              "seed": 0},
    build=_litmus_build, collect=_litmus_collect)
