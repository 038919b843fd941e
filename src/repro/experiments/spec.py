"""Run specifications and content-addressed fingerprints.

A :class:`RunSpec` is the unit of work of the experiment layer: one
benchmark under one protocol on one chip configuration with one seed.
Its :meth:`~RunSpec.fingerprint` is a content hash of everything that
determines the simulation's outcome — the fully expanded
:class:`~repro.core.config.ChipConfig`, the resolved workload profile,
the run knobs, and the version of the simulator source — so it can key
an on-disk result cache: two specs with the same fingerprint are
guaranteed (modulo hash collisions) to produce identical results.

``repro.core.api.run_benchmark`` is ``execute_point`` of a ``RunSpec``,
and the five benchmark knobs (``ops_per_core``, ``workload_scale``,
``think_scale``, ``seed``, ``max_cycles``) have their defaults here, on
``Sweep``, in ``WORKLOAD_KINDS`` and on that one documented signature —
everything else passes them through.

Runs outside the ``run_benchmark`` shape (ordered-network baselines,
INCF ablations, lock workloads, litmus programs) are described by the
sibling :class:`~repro.experiments.builders.SystemSpec`, which names a
registered system builder.  Both kinds are a :class:`PointSpec`: the
execution pipeline (:mod:`repro.experiments.sweep`) asks a spec for its
``key``, to ``build`` its system and to ``harvest`` the finished one,
and never asks which kind it is.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, FrozenSet, Mapping, Optional, Tuple, Union

from repro.core.config import ChipConfig
from repro.workloads.suites import benchmark_workload
from repro.workloads.suites import profile as lookup_profile
from repro.workloads.synthetic import WorkloadProfile

# Bump when the meaning of a cached payload changes (new fields, changed
# stat semantics) without a source-level change that code_version() sees.
SPEC_SCHEMA = 1


def config_to_dict(config: ChipConfig) -> Dict[str, Any]:
    """Canonical, JSON-able form of a :class:`ChipConfig` (recursively
    expands the nested subsystem dataclasses)."""
    return asdict(config)


def profile_to_dict(profile: WorkloadProfile) -> Dict[str, Any]:
    return asdict(profile)


class KeyMemo:
    """Per-call memo of the canonical dicts a spec key embeds.

    The specs of one batch share a handful of :class:`ChipConfig`
    objects and workload profiles, and expanding those with ``asdict``
    is most of the cost of fingerprinting a point.  A function that
    fingerprints a whole batch creates one memo and passes it to every
    ``key``/``fingerprint`` call it makes.  ``ChipConfig`` is mutable,
    so a memo must not outlive that call: configs are keyed by identity
    (and held, so an id cannot be recycled meanwhile), the frozen
    profiles and the workload dicts by value.  The returned dicts are
    shared — read-only.
    """

    def __init__(self) -> None:
        self._configs: Dict[int, Tuple[Optional[ChipConfig],
                                       Dict[str, Any]]] = {}
        self._profiles: Dict[WorkloadProfile, Dict[str, Any]] = {}
        self._workloads: Dict[FrozenSet[Tuple[Any, str]],
                              Dict[str, Any]] = {}

    def config_dict(self, config: Optional[ChipConfig]) -> Dict[str, Any]:
        """``config_to_dict`` of *config* (None = the 36-core default)."""
        entry = self._configs.get(id(config))
        if entry is None:
            resolved = config if config is not None \
                else ChipConfig.chip_36core()
            entry = self._configs[id(config)] = (
                config, config_to_dict(resolved))
        return entry[1]

    def profile_dict(self, profile: WorkloadProfile) -> Dict[str, Any]:
        expanded = self._profiles.get(profile)
        if expanded is None:
            expanded = self._profiles[profile] = profile_to_dict(profile)
        return expanded

    def workload_key(self, workload: Mapping[str, Any]) -> Dict[str, Any]:
        """``resolve_workload(workload, self).key``, resolved once per
        distinct workload.  Only a workload of plain scalars is memoised:
        the ``repr`` of an exact ``str`` / ``int`` / ``float`` / ``bool``
        / ``None`` tells 1, 1.0, True and "1" apart (and 0.0 from -0.0),
        which value equality does not, and the resolution checks types."""
        from repro.experiments.builders import resolve_workload
        if not _SCALAR_TYPES.issuperset(map(type, workload.values())):
            return resolve_workload(workload, self).key
        token = frozenset((name, repr(value))
                          for name, value in workload.items())
        key = self._workloads.get(token)
        if key is None:
            key = self._workloads[token] = resolve_workload(workload,
                                                            self).key
        return key


_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))


@dataclass
class SystemRunOutcome:
    """What harvesting a finished *system* produces (its JSON-able
    subset) — the builders' ``collect`` contract.  The result row is
    ``RunResult.from_outcome(spec, fingerprint, outcome)``."""

    runtime: int
    completed_ops: int
    progress: float
    stats: Dict[str, float]
    extra: Dict[str, Any] = field(default_factory=dict)


class PointSpec:
    """What the execution pipeline needs of one simulation point.

    A concrete spec supplies ``config``, ``label``, ``max_cycles``,
    ``kind``, ``protocol_name``, ``benchmark_name``, ``seed_value()``,
    ``key(memo)`` and ``build()``, and may override ``harvest(system)``.
    """

    config: Optional[ChipConfig]

    def resolved_config(self) -> ChipConfig:
        return self.config if self.config is not None \
            else ChipConfig.chip_36core()

    def harvest(self, system) -> SystemRunOutcome:
        """The outcome of a finished (or cycle-capped) *system*; its
        ``metrics()`` join the stats as ``system.<name>``."""
        stats = system.stats.snapshot()
        for name, value in system.metrics().items():
            stats[f"system.{name}"] = float(value)
        return SystemRunOutcome(runtime=system.engine.cycle,
                                completed_ops=system.total_completed_ops(),
                                progress=system.progress(), stats=stats)

    def fingerprint(self, code_version: Optional[str] = None,
                    memo: Optional[KeyMemo] = None) -> str:
        """SHA-256 over the canonical key plus the simulator version."""
        if code_version is None:
            from repro.experiments.cache import code_version as cv
            code_version = cv()
        blob = json.dumps({"code": code_version, "spec": self.key(memo)},
                          sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class RunSpec(PointSpec):
    """One (protocol, config, workload, seed) simulation point."""

    benchmark: Union[str, WorkloadProfile]
    protocol: str = "scorpio"
    config: Optional[ChipConfig] = None
    ops_per_core: int = 150
    workload_scale: float = 1.0
    think_scale: float = 1.0
    seed: int = 0
    max_cycles: int = 400_000
    # Free-form display label (e.g. the sweep axis value); not part of
    # the fingerprint because it does not affect the simulation.
    label: str = ""

    kind = "benchmark"

    def resolved_profile(self) -> WorkloadProfile:
        return lookup_profile(self.benchmark)

    @property
    def benchmark_name(self) -> str:
        if isinstance(self.benchmark, WorkloadProfile):
            return self.benchmark.name
        return self.benchmark

    @property
    def protocol_name(self) -> str:
        return self.protocol

    def seed_value(self) -> int:
        return self.seed

    def key(self, memo: Optional[KeyMemo] = None) -> Dict[str, Any]:
        """The canonical dict the fingerprint hashes.

        The workload is stored as the *resolved* profile, so editing a
        suite profile in :mod:`repro.workloads.suites` invalidates cached
        results for that benchmark even though the spec names it by
        string.
        """
        memo = memo or KeyMemo()
        return {
            "schema": SPEC_SCHEMA,
            "protocol": self.protocol,
            "workload": memo.profile_dict(self.resolved_profile()),
            "config": memo.config_dict(self.config),
            "ops_per_core": self.ops_per_core,
            "workload_scale": self.workload_scale,
            "think_scale": self.think_scale,
            "seed": self.seed,
            "max_cycles": self.max_cycles,
        }

    def build(self):
        """Construct — but do not run — this point's system."""
        from repro.core.api import build_system
        config = self.resolved_config()
        _, build_traces = benchmark_workload(
            self.benchmark, self.ops_per_core, self.workload_scale,
            self.think_scale, self.seed)
        return build_system(self.protocol, build_traces(config.n_cores),
                            config)
