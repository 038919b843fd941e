"""SCORPIO with replicated main networks (Sec. 5.3 scaling proposal).

A :class:`~repro.systems.scorpio.ScorpioSystem` whose fabric step builds
N meshes and one :class:`~repro.noc.multimesh.MultiMeshInterface` per
node tapped into all of them; everything else — notification network,
snoopy stack, run helpers, invariants — is inherited.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.config import ChipConfig
from repro.cpu.trace import Trace
from repro.noc.mesh import Mesh
from repro.noc.multimesh import MultiMeshInterface
from repro.systems.scorpio import ScorpioSystem


class MultiMeshScorpioSystem(ScorpioSystem):
    """Like :class:`ScorpioSystem`, but with N parallel main meshes.

    Global ordering is untouched: one notification network serves all
    meshes, and requests from one source always travel on one mesh so
    the per-source FIFO that SID-based ordering needs still holds.
    """

    def __init__(self, config: ChipConfig,
                 traces: Optional[Sequence[Trace]] = None,
                 n_meshes: int = 2) -> None:
        if n_meshes < 1:
            raise ValueError("need at least one main network")
        self.n_meshes = n_meshes     # read by build_fabric
        super().__init__(config, traces)

    def build_fabric(self) -> None:
        # Tick order: the routers of every mesh register (mesh-major)
        # before any NIC, and every mesh's reserved VCs read the one NIC
        # of the node they point at.
        noc = self.config.noc
        self.meshes.extend(Mesh(noc, self.engine, self.stats)
                           for _ in range(self.n_meshes))
        for node in range(self.n_nodes):
            nic = MultiMeshInterface(node, noc, self.config.notification,
                                     self.stats)
            for index, mesh in enumerate(self.meshes):
                nic.attach_router(mesh.attach(node, nic.tap(index)))
            self.engine.register(nic)
            self.nics.append(nic)
        for mesh in self.meshes:
            mesh.bind_rvc_direct(self.nics)
