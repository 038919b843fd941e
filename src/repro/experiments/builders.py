"""System-builder registry and the one point type, :class:`SystemSpec`.

A :class:`SystemSpec` *names* a registered builder plus JSON-able
builder params, a chip config and a declarative workload, so every
system the evaluation builds — a benchmark under one of the four
high-level protocols (:func:`benchmark_spec`), the Fig. 7
ordered-network baselines, the Sec. 2 Timestamp/Uncorq critiques, INCF
on/off ablations, lock-contention runs, litmus programs — is a
picklable, fingerprintable unit of work that
:func:`repro.experiments.sweep.run_sweep` can fan out across processes
and answer from the on-disk result cache.  The registry is
introspectable (``repro sweep --list-builders``) and extensible:
registering a builder is all it takes for a new system variant to be
sweepable.

Fingerprint contract: two SystemSpecs with equal fingerprints run the
same builder with the same resolved params on the same expanded config
against the same resolved workload, and label their rows with the same
protocol (see tests/test_golden_stats.py for the regression lock on the
underlying cycle-level behaviour).
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import io
import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import (Any, Callable, Dict, List, Literal, Mapping, Optional,
                    Tuple, Union, get_args, get_origin)

from repro.core.api import builder_of
from repro.core.config import ChipConfig
from repro.experiments.spec import SPEC_SCHEMA, KeyMemo, SystemRunOutcome
from repro.workloads.synthetic import WorkloadProfile

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
    # Synthetic benchmark traffic (the benchmark_spec shape).
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


def _default_types(defaults: Mapping[str, Any]) -> Dict[str, Tuple[Any, Any]]:
    """``{param: (default, type)}`` where a default names its own type;
    ``None`` and ``REQUIRED`` defaults name none (any value passes)."""
    return {name: (default, Any if default is None
                   or isinstance(default, _Required) else type(default))
            for name, default in defaults.items()}


# kind -> {param: (default, type)}, built once.
_WORKLOAD_PARAMS = {kind: _default_types(defaults)
                    for kind, defaults in WORKLOAD_KINDS.items()}


def _fits(value: Any, hint: Any) -> bool:
    """Whether *value* is a *hint*: exactly its type (a bool is not an
    int) or an int where a float is asked, a member of a ``Literal``, or
    any arm of a ``Union`` (``Optional``)."""
    if hint is Any:
        return True
    origin = get_origin(hint)
    if origin is Union:
        return any(_fits(value, arm) for arm in get_args(hint))
    if origin is Literal:
        return any(type(value) is type(arg) and value == arg
                   for arg in get_args(hint))
    if hint is type(None):
        return value is None
    return type(value) is hint or (hint is float and type(value) is int)


def _merge_params(kind: str, given: Mapping[str, Any],
                  params: Mapping[str, Tuple[Any, Any]],
                  what: str) -> Dict[str, Any]:
    """*given* checked against *params* (``{param: (default, type)}``)
    and completed with the defaults."""
    unknown = sorted(set(given) - set(params))
    if unknown:
        raise ValueError(f"unknown {what} parameter(s) {unknown} for "
                         f"{kind!r}; known: {sorted(params)}")
    for name, value in given.items():
        hint = params[name][1]
        if not _fits(value, hint):
            expected = getattr(hint, "__name__", None) \
                or str(hint).replace("typing.", "")
            raise ValueError(f"{what} parameter {name!r} of {kind!r} must "
                             f"be {expected}, got {value!r}")
    merged = {name: given.get(name, default)
              for name, (default, _) in params.items()}
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
    workloads, so editing a suite profile invalidates cached results
    even though the workload names it by string.  A trace workload's key
    is its path as given plus the sha256 of the file's bytes, and its
    traces are parsed from exactly those bytes, so an edited file never
    answers from the cache.
    """
    workload = dict(workload) if workload else {"kind": "idle"}
    kind = workload.pop("kind", None)
    if kind not in WORKLOAD_KINDS:
        raise ValueError(f"unknown workload kind {kind!r}; known: "
                         f"{sorted(WORKLOAD_KINDS)}")
    params = _merge_params(kind, workload, _WORKLOAD_PARAMS[kind],
                           "workload")

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
        from repro.cpu.tracefile import TraceFormatError, load_traces
        path = params["path"]
        if not isinstance(path, str):
            raise ValueError(f"trace path must be a string, got {path!r}")
        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            raise ValueError(f"cannot read trace file: {exc}") from exc

        def parse(n: int = 0):
            try:
                return load_traces(
                    io.TextIOWrapper(io.BytesIO(data), encoding="ascii"),
                    expect_cores=n)
            except ValueError as exc:
                raise TraceFormatError(f"{path}: {exc}") from exc

        # A malformed file fails here; the core count waits for the chip
        # (a document checks it when it loads).
        parse()
        key = {"kind": kind, "path": path,
               "sha256": hashlib.sha256(data).hexdigest()}
        return ResolvedWorkload(name=path, key=key, build_traces=parse)

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

    ``system`` names the system class as ``"module:Class"``, imported on
    first use: the builder builds ``Class(config, traces, **params)``,
    and the class's keyword parameters after ``traces`` — their defaults
    and annotations — are the builder's params.  A builder with a
    fundamentally different construction/harvest shape (litmus) supplies
    ``build`` and ``collect`` and its param ``defaults`` instead; the run
    phase is always ``execute_point``'s, so every builder can checkpoint.
    """

    name: str
    description: str
    system: str = ""
    defaults: Optional[Mapping[str, Any]] = None
    build: Optional[Callable[..., Any]] = None
    collect: Optional[Callable[..., SystemRunOutcome]] = None

    @cached_property
    def system_class(self) -> type:
        module, _, name = self.system.partition(":")
        return getattr(importlib.import_module(module), name)

    @cached_property
    def params(self) -> Dict[str, Tuple[Any, Any]]:
        """``{param: (default, type)}``."""
        if self.defaults is not None:
            return _default_types(self.defaults)
        signature = inspect.signature(self.system_class, eval_str=True)
        _config, _traces, *params = signature.parameters.values()
        return {param.name: (param.default, param.annotation)
                for param in params}

    def resolved_params(self, given: Mapping[str, Any]) -> Dict[str, Any]:
        return _merge_params(self.name, given, self.params, "builder")


BUILDERS: Dict[str, SystemBuilder] = {}


def register_builder(name: str, description: str, system: str = "",
                     defaults: Optional[Mapping[str, Any]] = None,
                     build: Optional[Callable] = None,
                     collect: Optional[Callable] = None) -> None:
    """Register builder *name*: the system class ``system`` names, or
    (litmus) ``build`` / ``collect`` with param ``defaults``."""
    BUILDERS[name] = SystemBuilder(name, description, system, defaults,
                                   build, collect)


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
    return [(name, BUILDERS[name].description,
             {param: default for param, (default, _)
              in BUILDERS[name].params.items()})
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
class SystemSpec:
    """One (builder, params, config, workload) simulation point — the
    one point type of every door (see the module docstring).

    The execution pipeline (:mod:`repro.experiments.sweep`) asks a spec
    for its ``key`` / ``fingerprint``, to ``build`` its system and to
    ``harvest`` the finished one.  Every payload column a spec supplies
    is in its key: the row's ``protocol`` column is ``protocol`` when set
    (``lpd`` for a ``directory`` run with ``scheme="LPD"``), else the
    builder name, and a set ``protocol`` is a key entry.
    """

    builder: str
    config: Optional[ChipConfig] = None
    params: Dict[str, Any] = field(default_factory=dict)
    workload: Dict[str, Any] = field(default_factory=dict)
    max_cycles: int = 400_000
    # Display bookkeeping, not part of the fingerprint.
    label: str = ""
    # The result row's ``protocol`` column; "" means the builder name.
    protocol: str = ""

    @property
    def protocol_name(self) -> str:
        """The result row's ``protocol`` column."""
        return self.protocol or self.builder

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

    def resolved_config(self) -> ChipConfig:
        return self.config if self.config is not None \
            else ChipConfig.chip_36core()

    def key(self, memo: Optional[KeyMemo] = None) -> Dict[str, Any]:
        """The canonical dict the fingerprint hashes."""
        builder = get_builder(self.builder)
        memo = memo or KeyMemo()
        key = {
            "schema": SPEC_SCHEMA,
            "kind": "system",
            "builder": self.builder,
            "params": builder.resolved_params(self.params),
            "workload": memo.workload_key(self.workload),
            "config": memo.config_dict(self.config),
            "max_cycles": self.max_cycles,
        }
        if self.protocol:
            key["protocol"] = self.protocol
        return key

    def fingerprint(self, code_version: Optional[str] = None,
                    memo: Optional[KeyMemo] = None) -> str:
        """SHA-256 over the canonical key plus the simulator version."""
        if code_version is None:
            from repro.experiments.cache import code_version as cv
            code_version = cv()
        blob = json.dumps({"code": code_version, "spec": self.key(memo)},
                          sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def build(self):
        return build_spec_system(self)

    def harvest(self, system) -> SystemRunOutcome:
        """The outcome of a finished (or cycle-capped) *system*, whether
        it ran start-to-finish in one process or was restored from a
        checkpoint and resumed: the builder's ``collect``, else the
        stats snapshot with the system's ``metrics()`` joined as
        ``system.<name>``."""
        collect = get_builder(self.builder).collect
        if collect is not None:
            return collect(self, system)
        stats = system.stats.snapshot()
        for name, value in system.metrics().items():
            stats[f"system.{name}"] = float(value)
        return SystemRunOutcome(runtime=system.engine.cycle,
                                completed_ops=system.total_completed_ops(),
                                progress=system.progress(), stats=stats)


def benchmark_spec(benchmark: Union[str, WorkloadProfile],
                   protocol: str = "scorpio",
                   config: Optional[ChipConfig] = None, *,
                   label: str = "", max_cycles: int = 400_000,
                   **knobs) -> SystemSpec:
    """One benchmark under one high-level protocol (``scorpio``, ``lpd``,
    ``ht``, ``fullbit``): the protocol's builder and params on a
    ``benchmark`` workload.  *knobs* (``ops_per_core``,
    ``workload_scale``, ``think_scale``, ``seed``) go into the workload;
    one not given takes its ``WORKLOAD_KINDS`` default."""
    builder, params = builder_of(protocol)
    return SystemSpec(builder, config, params=params,
                      workload={"kind": "benchmark", "name": benchmark,
                                **knobs},
                      max_cycles=max_cycles, label=label, protocol=protocol)


def build_spec_system(spec: SystemSpec):
    """Construct — but do not run — the system for *spec*.

    This is the object a checkpoint snapshots: everything the run will
    mutate (engine, NoC, caches, cores) hangs off it."""
    builder = get_builder(spec.builder)
    config = spec.resolved_config()
    params = builder.resolved_params(spec.params)
    if builder.build is not None:
        return builder.build(spec, config, params)
    traces = resolve_workload(spec.workload).build_traces(config.n_cores)
    return builder.system_class(config, traces, **params)


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
# A builder names its system class as "module:Class"; the class is
# imported on the builder's first use, since the registry is imported by
# the experiment layer's __init__ and most callers never build most
# systems.

register_builder(
    "scorpio",
    "SCORPIO ordered-mesh snoopy MOSI (the paper's fabricated design)",
    "repro.systems.scorpio:ScorpioSystem")
register_builder(
    "directory",
    "distributed-directory baseline (LPD-D / HT-D / FULLBIT, "
    "optional INCF)",
    "repro.systems.directory:DirectorySystem")
register_builder(
    "multimesh",
    "SCORPIO with N replicated main meshes (Sec. 5.3 scaling proposal)",
    "repro.systems.multimesh:MultiMeshScorpioSystem")
register_builder(
    "tokenb",
    "TokenB-like unordered broadcast, races resolved by retry (Fig. 7)",
    "repro.ordering_baselines.systems:TokenBSystem")
register_builder(
    "inso",
    "INSO snoopy coherence with pre-assigned expiring slots (Fig. 7)",
    "repro.ordering_baselines.systems:InsoSystem")
register_builder(
    "timestamp",
    "Timestamp Snooping with destination reorder buffers (Sec. 2)",
    "repro.ordering_baselines.systems:TimestampSystem")
register_builder(
    "uncorq",
    "Uncorq: unordered snoops + response ring, writes wait a circuit "
    "(Sec. 2)",
    "repro.ordering_baselines.systems:UncorqSystem")


def _litmus_build(spec: SystemSpec, config: ChipConfig,
                  params: Mapping[str, Any]):
    from repro.verification.litmus import (LitmusProgram,
                                           build_litmus_system)
    program = LitmusProgram(
        name=params["name"],
        threads=[[(op, var) for op, var in thread]
                 for thread in params["threads"]])
    return build_litmus_system(program, config, params["protocol"])


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
