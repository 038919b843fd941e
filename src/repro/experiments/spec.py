"""Spec keys: the canonical dicts a point's fingerprint hashes.

A point of the experiment layer is a
:class:`~repro.experiments.builders.SystemSpec`: one registered system
builder with its params, on one chip configuration, running one
declarative workload.  Its ``fingerprint`` is a content hash of
everything that determines the simulation's outcome — the fully
expanded :class:`~repro.core.config.ChipConfig`, the resolved workload,
the resolved params, the run knobs, and the version of the simulator
source — so it can key an on-disk result cache: two specs with the same
fingerprint are guaranteed (modulo hash collisions) to produce identical
results.

This module holds what that hash is built from: the canonical
expansions of configs and profiles, the per-call :class:`KeyMemo` that
shares them across one batch, and :class:`SystemRunOutcome`, what
harvesting a finished system yields.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, FrozenSet, Mapping, Optional, Tuple

from repro.core.config import ChipConfig
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
