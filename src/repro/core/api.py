"""The one result row every door returns, and the protocol → builder map.

A run is driven one way: a :class:`~repro.experiments.builders.SystemSpec`
through :func:`~repro.experiments.sweep.execute_point`, or a batch or an
experiment document through ``run_sweep`` / ``run_experiment``::

    from repro.api import ChipConfig, benchmark_spec, run_sweep

    [result] = run_sweep([benchmark_spec(
        "barnes", "scorpio", ChipConfig.chip_36core(), ops_per_core=200)])
    print(result.runtime, result.avg_l2_service_latency)

:class:`RunResult` lives here, below the experiment layer, so that
layer, the analysis code and the public API share one row class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.core.config import ChipConfig

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
    ``stats`` is the flat snapshot (a histogram is its
    ``<stem>.mean`` / ``<stem>.count`` pair); the named latency
    properties and :meth:`breakdown` read it.
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
    def avg_l2_service_latency(self) -> float:
        return self.stats.get("l2.miss_latency.mean", 0.0)

    @property
    def cache_served_latency(self) -> float:
        return self.stats.get("l2.miss_latency.cache.mean", 0.0)

    @property
    def memory_served_latency(self) -> float:
        return self.stats.get("l2.miss_latency.memory.mean", 0.0)

    def breakdown(self, served: str = "cache") -> Dict[str, float]:
        """Latency decomposition (Fig. 6b/6c categories) in mean cycles,
        keyed by category in sorted order."""
        prefix = f"l2.breakdown.{served}."
        return {key[len(prefix):-len(".mean")]: value
                for key, value in sorted(self.stats.items())
                if key.startswith(prefix) and key.endswith(".mean")}

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


def normalized_runtimes(results: Dict[str, RunResult],
                        baseline: str = "lpd") -> Dict[str, float]:
    """Runtimes normalized to *baseline* (the paper normalizes to LPD-D)."""
    base = results[baseline].runtime
    if base <= 0:
        raise ValueError("baseline runtime is zero")
    return {name: result.runtime / base for name, result in results.items()}
