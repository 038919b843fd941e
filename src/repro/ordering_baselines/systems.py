"""Full systems for the ordered-network baselines (Fig. 7 and Sec. 2).

All four reuse the snoopy MOSI stack end to end and change only how the
interconnect orders requests — the paper's "all conditions equal besides
the ordered network" methodology.  In code that is literal: each class
is its constructor signature plus the NIC it hands
:meth:`~repro.systems.base.BaseSystem.make_nic`; fabric, snoopy stack
and run helpers are :class:`~repro.systems.base.BaseSystem`'s.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.core.config import ChipConfig
from repro.cpu.trace import Trace
from repro.nic.controller import NetworkInterface
from repro.ordering_baselines.inso import InsoNetworkInterface
from repro.ordering_baselines.timestamp import TimestampNetworkInterface
from repro.ordering_baselines.uncorq import (LogicalRing,
                                             UncorqNetworkInterface)
from repro.systems.base import BaseSystem


class _SnoopyBaselineSystem(BaseSystem):
    """The snoopy stack over an unordered fabric: no notification
    network.  Where requests are delivered unordered they race, and the
    L2s resolve the races by rebroadcasting after *retry_timeout* cycles
    (plus the memory rescue); None means no retries."""

    def __init__(self, config: ChipConfig,
                 traces: Optional[Sequence[Trace]],
                 retry_timeout: Optional[int] = None) -> None:
        super().__init__(config, ordered=False)
        self.build_snoopy_stack(traces, retry_timeout)


class TokenBSystem(_SnoopyBaselineSystem):
    """TokenB-like broadcast coherence: no ordering wait at all — every
    NIC delivers requests in local arrival order (the default
    ``make_nic`` of an unordered system) and races are resolved by
    retries.  Like the paper, no persistent requests are modelled, so
    TokenB performs close to SCORPIO."""

    def __init__(self, config: ChipConfig,
                 traces: Optional[Sequence[Trace]] = None,
                 retry_timeout: int = 400, incf: bool = False) -> None:
        super().__init__(config, traces, retry_timeout)
        # INCF: snoopy-mode memory controllers keep the owner bits, so
        # they must observe every snoop — they are always interested.
        if incf:
            self.install_incf(always_interested=config.mc_nodes)


class InsoSystem(_SnoopyBaselineSystem):
    """INSO snoopy coherence: requests carry pre-assigned snoop-order
    slots, and idle slots must be expired every ``expiration_window``
    cycles (20/40/80 in Figure 7)."""

    def __init__(self, config: ChipConfig,
                 traces: Optional[Sequence[Trace]] = None,
                 expiration_window: int = 20) -> None:
        self.expiration_window = expiration_window   # read by make_nic
        super().__init__(config, traces)
        # In-network expiry: every NIC sees every frontier update after a
        # diameter-bounded latency.
        for nic in self.nics:
            nic.peers = list(self.nics)

    def make_nic(self, node: int) -> NetworkInterface:
        return InsoNetworkInterface(
            node, self.config.noc, self.config.notification, self.stats,
            expiration_window=self.expiration_window)

    def expiry_overhead(self) -> float:
        """Ratio of expiry messages to real coherence requests."""
        sent = self.stats.counter("nic.requests_sent")
        expiries = self.stats.counter("inso.expiry_messages")
        return expiries / sent if sent else float("inf")


class TimestampSystem(_SnoopyBaselineSystem):
    """Timestamp Snooping (Sec. 2): requests carry ordering times and
    destinations reorder.  Performance tracks SCORPIO, but the reorder
    buffers grow with cores x outstanding requests (72 buffers/node at
    36 cores — the overhead the Sec. 2 critique quantifies).

    ``slack`` is the OT headroom; the default covers the mesh diameter
    plus router pipeline plus a queueing allowance, matching TS's
    requirement that slack bound the delivery latency.
    """

    def __init__(self, config: ChipConfig,
                 traces: Optional[Sequence[Trace]] = None,
                 slack: Optional[int] = None) -> None:
        if slack is None:
            # Diameter x (router + link) + injection + a queueing margin.
            diameter = (config.noc.width - 1) + (config.noc.height - 1)
            slack = 4 * diameter + 40
        self.slack = slack                            # read by make_nic
        super().__init__(config, traces)

    def make_nic(self, node: int) -> NetworkInterface:
        return TimestampNetworkInterface(
            node, self.config.noc, self.config.notification, self.stats,
            slack=self.slack)

    def reorder_buffer_peak(self) -> int:
        """Worst per-node reorder-buffer occupancy (the Sec. 2 metric)."""
        return max(nic.reorder_peak() for nic in self.nics)

    def late_arrivals(self) -> int:
        """Requests that arrived after GT passed their OT (slack misses)."""
        return self.stats.counter("ts.late_arrivals")

    def metrics(self) -> Dict[str, float]:
        return {"reorder_buffer_peak": self.reorder_buffer_peak(),
                "late_arrivals": self.late_arrivals()}


class UncorqSystem(_SnoopyBaselineSystem):
    """Uncorq (Sec. 2): unordered snoop broadcast + responses collected
    by a message circling a logical ring embedded in the mesh.

    Writes complete only when their token finishes a full circle of the
    embedded logical ring, so the write wait grows linearly with core
    count (``ring.traversal_latency()`` gives the lower bound).
    """

    def __init__(self, config: ChipConfig,
                 traces: Optional[Sequence[Trace]] = None,
                 ring_hop_latency: int = 2,
                 retry_timeout: int = 400) -> None:
        self.ring_hop_latency = ring_hop_latency      # read by build_fabric
        super().__init__(config, traces, retry_timeout)
        self.engine.register(self.ring)      # ticks last, after the cores

    def build_fabric(self) -> None:
        self.ring = LogicalRing(self.config.noc, self.stats,
                                hop_latency=self.ring_hop_latency)
        super().build_fabric()

    def make_nic(self, node: int) -> NetworkInterface:
        return UncorqNetworkInterface(
            node, self.config.noc, self.config.notification, self.stats,
            ring=self.ring)

    def ring_traversal_latency(self) -> int:
        """Full-circle ring latency — the write-wait lower bound."""
        return self.ring.traversal_latency()

    def metrics(self) -> Dict[str, float]:
        return {"ring_traversal_latency": self.ring_traversal_latency()}
