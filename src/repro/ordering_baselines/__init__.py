"""Ordered-network baselines from Sec. 2 / Figure 7: TokenB, INSO,
Timestamp Snooping (TS) and Uncorq."""

from repro.ordering_baselines.inso import (InsoNetworkInterface,
                                           OrderedPayload)
from repro.ordering_baselines.systems import (InsoSystem, TimestampSystem,
                                              TokenBSystem, UncorqSystem)
from repro.ordering_baselines.timestamp import (TimestampNetworkInterface,
                                                TimestampedPayload)
from repro.ordering_baselines.uncorq import (LogicalRing, RingToken,
                                             UncorqNetworkInterface,
                                             snake_order)

__all__ = ["InsoNetworkInterface", "OrderedPayload",
           "InsoSystem", "TokenBSystem", "TimestampSystem",
           "TimestampNetworkInterface", "TimestampedPayload",
           "UncorqSystem", "UncorqNetworkInterface", "LogicalRing",
           "RingToken", "snake_order"]
