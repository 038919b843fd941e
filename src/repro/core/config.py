"""Chip-level configuration: Table 1 of the paper as executable defaults.

:class:`ChipConfig` bundles every subsystem's parameters and provides the
fabricated 36-core configuration plus the 64- and 100-core RTL variants
used in the scaling study (Sec. 5.3) and the sweep points of the design
exploration (Sec. 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.coherence.l2_controller import CacheConfig
from repro.core.serialize import SerializableConfig
from repro.cpu.core import CoreConfig
from repro.memory.controller import MemoryConfig
from repro.noc.config import NocConfig, NotificationConfig

# Table 1 constants that are facts about the chip rather than simulator
# parameters; exported for the Table-1/Table-2 harnesses.
CHIP_FEATURES: Dict[str, str] = {
    "process": "IBM 45 nm SOI",
    "dimension": "11 x 13 mm^2",
    "transistor_count": "600 M",
    "frequency": "833 MHz (1 GHz post-synthesis)",
    "power": "28.8 W",
    "core": "Dual-issue, in-order, 10-stage pipeline",
    "isa": "32-bit Power Architecture",
    "l1_cache": "Private split 4-way set associative write-through 16 KB I/D",
    "l2_cache": "Private inclusive 4-way set associative 128 KB",
    "line_size": "32 B",
    "coherence": "MOSI (O: forward state)",
    "directory_cache": "128 KB (1 owner bit, 1 dirty bit)",
    "snoop_filter": "Region tracker (4 KB regions, 128 entries)",
    "topology": "6x6 mesh",
    "channel_width": "137 bits (ctrl 1 flit, data 3 flits)",
    "goreq_vnet": "Globally ordered - 4 VCs, 1 buffer each",
    "uoresp_vnet": "Unordered - 2 VCs, 3 buffers each",
    "router": "XY routing, cut-through, multicast, lookahead bypassing",
    "pipeline": "3-stage router (1-stage with bypassing), 1-stage link",
    "notification": "36 bits wide, bufferless, 13-cycle window, "
                    "max 4 pending messages",
    "memory_controllers": "2x dual-port Cadence DDR2 + PHY",
}


def default_mc_nodes(width: int, height: int) -> List[int]:
    """Edge nodes hosting the two memory controllers (Fig. 5 layout:
    controllers attach along the top and bottom chip edges)."""
    bottom = width // 2
    top = (height - 1) * width + width // 2
    return [bottom, top]


@dataclass
class ChipConfig(SerializableConfig):
    """All subsystem parameters for one simulated chip.

    Serializes canonically via :meth:`to_dict` / :meth:`from_dict`
    (:mod:`repro.core.serialize`): the round-trip is validated strictly
    and preserves experiment fingerprints, so a config shipped through
    an experiment document hits the same result-cache entries as the
    code-built original.
    """

    noc: NocConfig = field(default_factory=NocConfig)
    notification: NotificationConfig = field(
        default_factory=NotificationConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    core: CoreConfig = field(default_factory=CoreConfig)
    mc_nodes: Optional[List[int]] = None
    # Total directory-cache capacity for the LPD/HT baselines (Sec. 5
    # fixes 256 KB).  Benchmark harnesses shrink this together with the
    # workload footprints so the relative directory-cache pressure of the
    # paper's full-size runs is preserved at tractable simulation sizes.
    directory_cache_bytes: int = 256 * 1024

    def __post_init__(self) -> None:
        if self.mc_nodes is None:
            self.mc_nodes = default_mc_nodes(self.noc.width, self.noc.height)

    @property
    def n_cores(self) -> int:
        return self.noc.n_nodes

    # ------------------------------------------------------------------
    # Factory methods
    # ------------------------------------------------------------------

    @classmethod
    def chip_36core(cls) -> "ChipConfig":
        """The fabricated configuration (Table 1): the field defaults."""
        return cls()

    @classmethod
    def variant(cls, width: int, height: int, goreq_vcs: int = 4,
                **noc_overrides) -> "ChipConfig":
        """The 64-core (8x8, 16 GO-REQ VCs) and 100-core (10x10, 50 VCs)
        RTL variants of Sec. 5.3 — or any custom mesh."""
        noc = NocConfig(width=width, height=height, goreq_vcs=goreq_vcs,
                        **noc_overrides)
        window = max(13, NotificationConfig.minimum_window(width, height))
        return cls(noc=noc,
                   notification=NotificationConfig(window=window))

    @classmethod
    def chip_64core(cls) -> "ChipConfig":
        return cls.variant(8, 8, goreq_vcs=16)

    @classmethod
    def chip_100core(cls) -> "ChipConfig":
        return cls.variant(10, 10, goreq_vcs=50)

    # ------------------------------------------------------------------
    # Sweep helpers (design exploration, Sec. 5.2)
    # ------------------------------------------------------------------

    def with_channel_width(self, bytes_: int) -> "ChipConfig":
        return replace(self, noc=replace(self.noc,
                                         channel_width_bytes=bytes_))

    def with_goreq_vcs(self, vcs: int) -> "ChipConfig":
        return replace(self, noc=replace(self.noc, goreq_vcs=vcs))

    def with_uoresp_vcs(self, vcs: int) -> "ChipConfig":
        return replace(self, noc=replace(self.noc, uoresp_vcs=vcs))

    def with_notification_bits(self, bits: int) -> "ChipConfig":
        return replace(self, notification=replace(self.notification,
                                                  bits_per_core=bits))

    def with_pipelining(self, pipelined: bool) -> "ChipConfig":
        return replace(
            self,
            noc=replace(self.noc, nic_pipelined=pipelined),
            cache=replace(self.cache, l2_pipelined=pipelined))
