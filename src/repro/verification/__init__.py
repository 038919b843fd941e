"""Memory-consistency verification: litmus tests over the live system
(the simulator analogue of the chip's Sec. 4.3 regression suites)."""

from repro.verification.litmus import (ALL_LITMUS, COHERENCE_ORDER, IRIW,
                                       LOAD_BUFFERING, MESSAGE_PASSING,
                                       STORE_BUFFERING, LitmusCore,
                                       LitmusProgram, Observation,
                                       is_sequentially_consistent,
                                       litmus_spec, var_addr)
from repro.verification.monitor import (InvariantViolation, MonitorReport,
                                        SystemMonitor, attach_monitor)

__all__ = [
    "ALL_LITMUS", "COHERENCE_ORDER", "IRIW", "LOAD_BUFFERING",
    "MESSAGE_PASSING", "STORE_BUFFERING", "LitmusCore", "LitmusProgram",
    "Observation", "is_sequentially_consistent", "litmus_spec",
    "var_addr",
    "InvariantViolation", "MonitorReport", "SystemMonitor",
    "attach_monitor",
]
