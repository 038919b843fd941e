"""Directory-baseline systems: LPD-D and HT-D on the same mesh.

Per the paper's methodology (Sec. 5), everything except the ordering
machinery is held equal: same mesh (minus GO-REQ ordering and the
notification network), same caches, same memory latency.  Directories are
distributed across all cores ("-D"), with the total directory cache size
fixed at 256 KB.
"""

from __future__ import annotations

from typing import Literal, Optional, Sequence, get_args

from repro.coherence.dir_l2 import DirectoryL2Controller
from repro.coherence.directory import DirectoryConfig, DirectoryController
from repro.core.config import ChipConfig
from repro.cpu.trace import Trace
from repro.memory.controller import (AddressInterleavedMap,
                                     MemoryController, OwnsMappedAddr)
from repro.systems.base import BaseSystem

Scheme = Literal["LPD", "FULLBIT", "HT"]


class DirectorySystem(BaseSystem):
    """A distributed-directory multicore ("LPD", "FULLBIT" or "HT"),
    its directory cache sized by ``config.directory_cache_bytes``."""

    def __init__(self, config: ChipConfig,
                 traces: Optional[Sequence[Trace]] = None,
                 scheme: Scheme = "LPD", incf: bool = False,
                 incf_table_capacity: Optional[int] = None) -> None:
        if scheme not in get_args(Scheme):
            raise ValueError(f"scheme must be one of {get_args(Scheme)}, "
                             f"got {scheme!r}")
        super().__init__(config, ordered=False)
        self.scheme = scheme
        directory = DirectoryConfig(
            scheme, self.n_nodes,
            total_cache_bytes=config.directory_cache_bytes)

        line_size = config.noc.line_size_bytes
        # Homes are line-interleaved over every node.
        self.home_map = AddressInterleavedMap(list(range(self.n_nodes)),
                                              line_size)

        register = self.engine.register
        self.l2s = [
            register(DirectoryL2Controller(
                node, self.nics[node], self.memory_map, self.home_map,
                line_size, config.cache, self.stats,
                requires_marker=(scheme == "HT")))
            for node in range(self.n_nodes)]
        self.directories = [
            register(DirectoryController(node, self.nics[node], directory,
                                         self.memory_map, line_size,
                                         self.stats))
            for node in range(self.n_nodes)]
        self.memory_controllers = [
            register(MemoryController(
                mc_node, self.nics[mc_node],
                owns_addr=OwnsMappedAddr(self.memory_map, mc_node),
                line_size=line_size, config=config.memory,
                stats=self.stats, snoopy=False))
            for mc_node in config.mc_nodes]

        # Directory-mode memory controllers never snoop, so no node is
        # always-interested.
        if incf:
            self.install_incf(table_capacity=incf_table_capacity)
        self.attach_traces(traces)

    def quiesced(self) -> bool:
        return (super().quiesced()
                and all(d.idle() for d in self.directories))
