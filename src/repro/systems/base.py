"""Common assembly for full-system simulations.

A *system* wires together the engine, the main-network mesh, one NIC per
node, and (for ordered systems) the notification network.  Subclasses add
the protocol stack: snoopy L2s + snooping memory controllers for SCORPIO,
directory L2s + home-directory slices + dumb memory controllers for the
LPD-D / HT-D baselines.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence

from repro.coherence.l2_controller import CacheConfig
from repro.cpu.core import CoreConfig, TraceCore
from repro.cpu.trace import Trace
from repro.memory.controller import MemoryConfig, make_memory_map
from repro.nic.controller import NetworkInterface
from repro.noc.config import NocConfig, NotificationConfig
from repro.noc.mesh import Mesh, NicRvcOracle
from repro.notification.network import NotificationNetwork
from repro.sim.engine import Engine
from repro.sim.journal import system_routers
from repro.sim.stats import StatsRegistry


def default_mc_nodes(width: int, height: int) -> List[int]:
    """Edge nodes hosting the two memory controllers (Fig. 5 layout:
    controllers attach along the top and bottom chip edges)."""
    bottom = width // 2
    top = (height - 1) * width + width // 2
    return [bottom, top]


def record_kernel_meta(system) -> None:
    """Copy kernel accounting into the stats *meta* channel: the engine's
    quiescence counters (``engine.*`` — how many ticks actually executed;
    cycle counts across fast-forwarded gaps are already in
    ``engine.cycle``) and the routers' kernel counters (``router.*`` —
    slot scans, blocked scans, wake-ups by cause, and ``la_echoes``, the
    share of ``noc.la.lost_arbitration`` that is no real conflict).
    Journal accounting (``journal.*``) rides the same channel when
    observability is attached.  Diagnostics only, never part of result
    payloads — payload bytes are identical with the journal on or off."""
    stats = system.stats
    for name, value in system.engine.kernel_accounting().items():
        stats.set_meta(f"engine.{name}", value)
    totals: Counter = Counter()
    for router in system_routers(system):
        totals.update(router.kernel_counters())
    for name, value in totals.items():
        stats.set_meta(f"router.{name}", value)
    journal = system.engine.journal
    if journal is not None:
        stats.set_meta("journal.records", len(journal))
        stats.set_meta("journal.dropped", journal.dropped)
    sampler = system.engine._sampler
    if sampler is not None:
        stats.set_meta("journal.samples", len(sampler))


def all_cores_finished(system) -> bool:
    """Whether every core of *system* has finished — the ``until``
    predicate of ``run_until_done``, asked after every simulated cycle.
    Cores never un-finish, so ``system._cores_left`` (plain state: a
    checkpoint carries it) keeps only those not yet seen finished."""
    left = system._cores_left
    if not left:
        left.extend(system.cores.values())
    while left and left[-1].finished:
        left.pop()
    return not left


class BaseSystem:
    """Shared plumbing: engine + mesh + NICs (+ notification network)."""

    def __init__(self, noc: Optional[NocConfig] = None,
                 notification: Optional[NotificationConfig] = None,
                 cache: Optional[CacheConfig] = None,
                 memory: Optional[MemoryConfig] = None,
                 core: Optional[CoreConfig] = None,
                 mc_nodes: Optional[Sequence[int]] = None,
                 ordered: bool = True,
                 seed: int = 0,
                 nic_factory=None) -> None:
        self.noc_config = noc or NocConfig()
        width, height = self.noc_config.width, self.noc_config.height
        min_window = NotificationConfig.minimum_window(width, height)
        if notification is None:
            notification = NotificationConfig(
                window=max(13, min_window))
        elif notification.window < min_window:
            raise ValueError("notification window below the latency bound")
        self.notif_config = notification
        self.cache_config = cache or CacheConfig(
            line_size=self.noc_config.line_size_bytes)
        self.memory_config = memory or MemoryConfig(
            line_size=self.noc_config.line_size_bytes)
        self.core_config = core or CoreConfig()
        self.mc_nodes = list(mc_nodes) if mc_nodes is not None \
            else default_mc_nodes(width, height)
        self.ordered = ordered
        self.stats = StatsRegistry()
        self.engine = Engine(seed=seed)
        self.mesh = Mesh(self.noc_config, self.engine, self.stats)
        self.n_nodes = self.noc_config.n_nodes
        self.memory_map = make_memory_map(self.mc_nodes,
                                          self.noc_config.line_size_bytes)

        self.nics: List[NetworkInterface] = []
        for node in range(self.n_nodes):
            if nic_factory is not None:
                nic = nic_factory(node)
            else:
                nic = NetworkInterface(node, self.noc_config,
                                       self.notif_config, self.stats,
                                       ordering_enabled=ordered)
            router = self.mesh.attach(node, nic)
            nic.attach_router(router)
            self.engine.register(nic)
            self.nics.append(nic)
        self.mesh.set_rvc_oracle(NicRvcOracle(self.nics))

        self.notification_network: Optional[NotificationNetwork] = None
        if ordered:
            self.notification_network = NotificationNetwork(
                width, height, self.notif_config, self.engine, self.stats)
            for node, nic in enumerate(self.nics):
                self.notification_network.attach(
                    node, nic.compose_notification,
                    nic.receive_merged_notification)

        self.cores: Dict[int, TraceCore] = {}
        self._cores_left: List[TraceCore] = []

    # ------------------------------------------------------------------

    def attach_cores(self, traces: Sequence[Trace],
                     l2_of) -> None:
        """Create one trace core per trace; ``l2_of(node)`` supplies the
        node's cache controller."""
        for node, trace in enumerate(traces):
            core = TraceCore(node, l2_of(node), trace, self.core_config,
                             self.stats)
            self.engine.register(core)
            self.cores[node] = core

    def run(self, cycles: int) -> int:
        ran = self.engine.run(cycles)
        record_kernel_meta(self)
        return ran

    def all_cores_finished(self) -> bool:
        return all_cores_finished(self)

    def run_until_done(self, max_cycles: int = 1_000_000) -> int:
        """Run until every core finished its trace; returns the cycle
        count reached (the 'runtime' of the workload)."""
        self.engine.run(max_cycles, until=self.all_cores_finished)
        record_kernel_meta(self)
        return self.engine.cycle

    def total_completed_ops(self) -> int:
        return sum(core.completed_ops for core in self.cores.values())

    def progress(self) -> float:
        if not self.cores:
            return 1.0
        return (sum(core.progress() for core in self.cores.values())
                / len(self.cores))
