"""The full SCORPIO system: snoopy MOSI over the ordered mesh.

This is the paper's SCORPIO(-D) configuration — "-D" only matters for the
baselines (it distributes their directories); SCORPIO itself has no
directory indirection, just the owner-bit-tracking memory controllers at
the chip edge.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.config import ChipConfig
from repro.cpu.trace import Trace
from repro.systems.base import BaseSystem


class ScorpioSystem(BaseSystem):
    """36 (or 64/100) tiles of core + L2 snooping an ordered mesh."""

    def __init__(self, config: ChipConfig,
                 traces: Optional[Sequence[Trace]] = None) -> None:
        super().__init__(config, ordered=True)
        self.build_snoopy_stack(traces)

    # ------------------------------------------------------------------
    # Invariant checks (used by tests)
    # ------------------------------------------------------------------

    def single_owner_invariant(self) -> bool:
        """At most one L2 owns any line (counting writeback buffers)."""
        owners = {}
        for l2 in self.l2s:
            for set_idx, line in l2.array.lines():
                if line.state.is_owner:
                    addr = l2.array.addr_of(set_idx, line)
                    if addr in owners:
                        return False
                    owners[addr] = l2.node
            for addr, entry in l2.wb_buffer.items():
                if not entry.lost_ownership:
                    if addr in owners:
                        return False
                    owners[addr] = l2.node
        return True

    def quiesced(self) -> bool:
        """Nothing in flight anywhere (end-of-run sanity)."""
        return super().quiesced() and all(l2.idle() for l2 in self.l2s)
