"""SCORPIO with replicated main networks (Sec. 5.3 scaling proposal)."""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.coherence.l2_controller import CacheConfig, L2Controller
from repro.cpu.core import CoreConfig
from repro.cpu.trace import Trace
from repro.memory.controller import MemoryConfig, MemoryController
from repro.noc.config import NocConfig, NotificationConfig
from repro.noc.mesh import Mesh, NicRvcOracle
from repro.noc.multimesh import MultiMeshInterface
from repro.notification.network import NotificationNetwork
from repro.sim.engine import Engine
from repro.sim.stats import StatsRegistry
from repro.systems.base import (all_cores_finished, default_mc_nodes,
                                record_kernel_meta)
from repro.memory.controller import OwnsMappedAddr, make_memory_map


class MultiMeshScorpioSystem:
    """Like :class:`ScorpioSystem`, but with N parallel main meshes.

    Global ordering is untouched: one notification network serves all
    meshes, and requests from one source always travel on one mesh so
    the per-source FIFO that SID-based ordering needs still holds.
    """

    def __init__(self, traces: Optional[Sequence[Trace]] = None,
                 n_meshes: int = 2,
                 noc: Optional[NocConfig] = None,
                 notification: Optional[NotificationConfig] = None,
                 cache: Optional[CacheConfig] = None,
                 memory: Optional[MemoryConfig] = None,
                 core: Optional[CoreConfig] = None,
                 mc_nodes: Optional[Sequence[int]] = None,
                 seed: int = 0) -> None:
        if n_meshes < 1:
            raise ValueError("need at least one main network")
        self.noc_config = noc or NocConfig()
        width, height = self.noc_config.width, self.noc_config.height
        self.notif_config = notification or NotificationConfig(
            window=max(13, NotificationConfig.minimum_window(width, height)))
        self.cache_config = cache or CacheConfig(
            line_size=self.noc_config.line_size_bytes)
        self.memory_config = memory or MemoryConfig(
            line_size=self.noc_config.line_size_bytes)
        self.core_config = core or CoreConfig()
        self.mc_nodes = list(mc_nodes) if mc_nodes is not None \
            else default_mc_nodes(width, height)
        self.stats = StatsRegistry()
        self.engine = Engine(seed=seed)
        self.n_nodes = self.noc_config.n_nodes
        self.memory_map = make_memory_map(self.mc_nodes,
                                          self.noc_config.line_size_bytes)

        self.meshes: List[Mesh] = [
            Mesh(self.noc_config, self.engine, self.stats)
            for _ in range(n_meshes)]
        self.nics: List[MultiMeshInterface] = []
        for node in range(self.n_nodes):
            nic = MultiMeshInterface(node, self.noc_config,
                                     self.notif_config, self.stats)
            for index, mesh in enumerate(self.meshes):
                router = mesh.attach(node, nic.tap(index))
                nic.attach_router(router)
            self.engine.register(nic)
            self.nics.append(nic)
        rvc_oracle = NicRvcOracle(self.nics)
        for mesh in self.meshes:
            mesh.set_rvc_oracle(rvc_oracle)

        self.notification_network = NotificationNetwork(
            width, height, self.notif_config, self.engine, self.stats)
        for node, nic in enumerate(self.nics):
            self.notification_network.attach(node, nic.compose_notification,
                                             nic.receive_merged_notification)

        self.l2s: List[L2Controller] = []
        for node in range(self.n_nodes):
            l2 = L2Controller(node, self.nics[node], self.memory_map,
                              self.cache_config, self.stats)
            self.engine.register(l2)
            self.l2s.append(l2)
        self.memory_controllers: List[MemoryController] = []
        for mc_node in self.mc_nodes:
            mc = MemoryController(
                mc_node, self.nics[mc_node],
                owns_addr=OwnsMappedAddr(self.memory_map, mc_node),
                config=self.memory_config, stats=self.stats, snoopy=True)
            self.engine.register(mc)
            self.memory_controllers.append(mc)

        self.cores = {}
        self._cores_left = []
        if traces is not None:
            if len(traces) != self.n_nodes:
                raise ValueError(f"need {self.n_nodes} traces")
            from repro.cpu.core import TraceCore
            for node, trace in enumerate(traces):
                core = TraceCore(node, self.l2s[node], trace,
                                 self.core_config, self.stats)
                self.engine.register(core)
                self.cores[node] = core

    def all_cores_finished(self) -> bool:
        return all_cores_finished(self)

    def run_until_done(self, max_cycles: int = 1_000_000) -> int:
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
