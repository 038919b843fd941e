"""System assembly, spelled once.

:class:`BaseSystem` takes the chip's one
:class:`~repro.core.config.ChipConfig`, creates ``stats`` / ``engine`` /
``memory_map``, builds the fabric (:meth:`~BaseSystem.build_fabric`: one
mesh, one NIC per node from :meth:`~BaseSystem.make_nic`) and, for
ordered systems, the notification network.  Subclasses stack a protocol
on the NICs: :meth:`~BaseSystem.build_snoopy_stack` for SCORPIO, its
multi-mesh variant and the ordered-network baselines; directory L2s +
home slices + dumb memory controllers for LPD / HT / FULLBIT.

**Registration order is tick order**: routers (mesh-major) → NICs →
notification network → L2s → directories → memory controllers → cores →
(Uncorq) the ring.  It is simulated behaviour and must not move;
``tests/test_system_assembly.py`` pins it.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence

from repro.coherence.l2_controller import L2Controller
from repro.core.config import ChipConfig
from repro.cpu.core import TraceCore
from repro.cpu.trace import Trace
from repro.memory.controller import (MemoryController, OwnsMappedAddr,
                                     make_memory_map)
from repro.nic.controller import (NetworkInterface,
                                  OrderedNetworkInterface)
from repro.noc.filtering import (BroadcastFilter, FilterTable,
                                 l2_interest_oracle)
from repro.noc.mesh import Mesh
from repro.notification.network import NotificationNetwork
from repro.sim.engine import Engine
from repro.sim.journal import system_routers
from repro.sim.stats import StatsRegistry


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


class BaseSystem:
    """Engine + fabric (+ notification network), and the steps that stack
    a protocol on it."""

    broadcast_filter = None     # set by install_incf

    def __init__(self, config: ChipConfig, ordered: bool) -> None:
        self.config = config
        self.ordered = ordered
        self.stats = StatsRegistry()
        self.engine = Engine()
        self.n_nodes = config.noc.n_nodes
        self.memory_map = make_memory_map(config.mc_nodes,
                                          config.noc.line_size_bytes)

        self.meshes: List[Mesh] = []
        self.nics: List[NetworkInterface] = []
        self.build_fabric()

        self.notification_network: Optional[NotificationNetwork] = None
        if ordered:
            self.notification_network = NotificationNetwork(
                config.noc.width, config.noc.height, config.notification,
                self.engine, self.stats)
            for node, nic in enumerate(self.nics):
                nic.announce = self.notification_network.attach(
                    node, nic.compose_notification,
                    nic.receive_merged_notification)

        self.cores: Dict[int, TraceCore] = {}

    # ------------------------------------------------------------------
    # Assembly steps
    # ------------------------------------------------------------------

    def build_fabric(self) -> None:
        """Fill ``meshes`` and ``nics``; every router registers before
        any NIC.  Runs inside ``__init__``: whatever an override (or
        ``make_nic``) reads of ``self`` must be set before
        ``BaseSystem.__init__`` is called."""
        mesh = Mesh(self.config.noc, self.engine, self.stats)
        self.meshes.append(mesh)
        for node in range(self.n_nodes):
            nic = self.make_nic(node)
            nic.attach_router(mesh.attach(node, nic))
            self.engine.register(nic)
            self.nics.append(nic)
        mesh.bind_rvc_direct(self.nics)

    def make_nic(self, node: int) -> NetworkInterface:
        """The NIC of *node* — the one thing an ordered-network baseline
        changes: SCORPIO's when the system is ordered, else the
        arrival-order one."""
        nic_class = OrderedNetworkInterface if self.ordered \
            else NetworkInterface
        return nic_class(node, self.config.noc, self.config.notification,
                         self.stats)

    @property
    def mesh(self) -> Mesh:
        return self.meshes[0]

    def build_snoopy_stack(self, traces: Optional[Sequence[Trace]]) -> None:
        """Snoopy MOSI over the NICs: one L2 per node, the owner-bit
        memory controllers at ``config.mc_nodes``, then the trace cores."""
        register = self.engine.register
        config = self.config
        line_size = config.noc.line_size_bytes
        self.l2s = [
            register(L2Controller(node, self.nics[node], self.memory_map,
                                  line_size, config.cache, self.stats))
            for node in range(self.n_nodes)]
        self.memory_controllers = [
            register(MemoryController(
                mc_node, self.nics[mc_node],
                owns_addr=OwnsMappedAddr(self.memory_map, mc_node),
                line_size=line_size, config=config.memory,
                stats=self.stats, snoopy=True))
            for mc_node in config.mc_nodes]
        self.attach_traces(traces)

    def attach_traces(self, traces: Optional[Sequence[Trace]]) -> None:
        """One trace core per node on ``self.l2s`` (None: no cores)."""
        if traces is None:
            return
        if len(traces) != self.n_nodes:
            raise ValueError(f"need {self.n_nodes} traces, "
                             f"got {len(traces)}")
        self.attach_cores(traces, self.l2s.__getitem__)

    def attach_cores(self, traces: Sequence[Trace], l2_of) -> None:
        """Create one trace core per trace; ``l2_of(node)`` supplies the
        node's cache controller."""
        for node, trace in enumerate(traces):
            core = TraceCore(node, l2_of(node), trace,
                             self.config.noc.line_size_bytes,
                             self.config.core, self.stats)
            self.engine.register(core)
            self.cores[node] = core

    def install_incf(self, always_interested: Sequence[int] = (),
                     table_capacity: Optional[int] = None) -> None:
        """INCF (Sec. 5.3 future work): prune snoop-broadcast branches
        whose subtrees provably hold no interested L2 (nodes in
        *always_interested* see every snoop), through a finite
        :class:`FilterTable` when *table_capacity* is given."""
        interest = l2_interest_oracle(self.l2s)
        if table_capacity is not None:
            interest = FilterTable(
                interest, capacity=table_capacity,
                region_bytes=self.config.cache.region_bytes)
        self.broadcast_filter = BroadcastFilter(
            self.config.noc.width, self.config.noc.height, interest,
            always_interested=always_interested, stats=self.stats)
        for mesh in self.meshes:
            mesh.set_broadcast_filter(self.broadcast_filter)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run(self, cycles: int) -> int:
        ran = self.engine.run(cycles)
        record_kernel_meta(self)
        return ran

    def all_cores_finished(self) -> bool:
        """Whether every core has finished — the ``until`` predicate of
        :meth:`run_until_done`, asked after every executed tick.  A
        plain loop: no generator frame to resume per core."""
        for core in self.cores.values():
            if not core.finished:
                return False
        return True

    def run_until_done(self, max_cycles: int = 1_000_000) -> int:
        """Run until every core finished its trace or the clock reaches
        cycle *max_cycles* (an absolute cap, so a restored or sliced run
        stops where a straight one does), record the kernel meta, and
        return the cycle reached (the 'runtime' of the workload).

        Finished-ness gates *before* ``Engine.run``: a run always
        advances at least one cycle, which would shift the runtime of a
        system restored exactly at its completion boundary."""
        engine = self.engine
        if not self.all_cores_finished() and engine.cycle < max_cycles:
            engine.run(max_cycles - engine.cycle,
                       until=self.all_cores_finished)
        record_kernel_meta(self)
        return engine.cycle

    def metrics(self) -> Dict[str, float]:
        """System-level numbers that live outside the stats registry
        (reorder-buffer peaks, ring latencies); a result row carries
        them as ``system.<name>`` stats."""
        return {}

    def total_completed_ops(self) -> int:
        return sum(core.completed_ops for core in self.cores.values())

    def progress(self) -> float:
        if not self.cores:
            return 1.0
        return (sum(core.progress() for core in self.cores.values())
                / len(self.cores))

    def quiesced(self) -> bool:
        """Nothing in flight in the fabric or the memory controllers
        (end-of-run sanity; subclasses add their own controllers)."""
        return (all(mesh.quiescent() for mesh in self.meshes)
                and all(nic.idle() for nic in self.nics)
                and all(mc.idle() for mc in self.memory_controllers))
