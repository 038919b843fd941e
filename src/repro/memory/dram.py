"""Banked DDR2 DRAM timing model.

The paper's own RTL methodology replaces the Cadence DDR2 controller IP
with "a functional memory model with fully-pipelined 90-cycle latency",
and that is this simulator's default too (:class:`MemoryConfig`).  This
module is the optional higher-fidelity step: a bank-and-row model of one
DDR2 device behind each controller, for studying how row locality and
bank conflicts spread the fixed latency into a distribution.

Timing follows the classic open-page state machine, with all parameters
expressed in core cycles:

* **row hit** — the open row matches: pay CAS only.
* **row closed** — the bank is idle with no open row: ACTIVATE + CAS.
* **row conflict** — a different row is open: PRECHARGE + ACTIVATE + CAS.

Requests to one bank serialize on the bank's busy window; all banks of a
controller share one data bus that serializes the line burst transfers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.serialize import SerializableConfig
from repro.sim.stats import StatsRegistry


@dataclass
class DramConfig(SerializableConfig):
    """DDR2-style timing, in core cycles (833 MHz core vs DDR2-800)."""

    n_banks: int = 8
    row_bytes: int = 2048
    t_cas: int = 20          # column access (CL)
    t_rcd: int = 15          # row activate -> column ready
    t_rp: int = 15           # precharge
    burst_cycles: int = 4    # one cache line on the shared data bus

    def __post_init__(self) -> None:
        if self.n_banks <= 0:
            raise ValueError("need at least one bank")
        if self.row_bytes <= 0 or self.row_bytes & (self.row_bytes - 1):
            raise ValueError("row size must be a power of two")

    @property
    def hit_latency(self) -> int:
        return self.t_cas

    @property
    def closed_latency(self) -> int:
        return self.t_rcd + self.t_cas

    @property
    def conflict_latency(self) -> int:
        return self.t_rp + self.t_rcd + self.t_cas


@dataclass
class _Bank:
    open_row: Optional[int] = None
    busy_until: int = 0


class DramModel:
    """One controller's DRAM device: banks + shared data bus."""

    def __init__(self, config: DramConfig, line_size: int,
                 stats: Optional[StatsRegistry] = None,
                 name: str = "dram") -> None:
        if config.row_bytes < line_size:
            raise ValueError("a row must hold at least one line")
        self.config = config
        self.line_size = line_size
        self.stats = stats or StatsRegistry()
        self.name = name
        self._banks: List[_Bank] = [_Bank()
                                    for _ in range(self.config.n_banks)]
        self._bus_busy_until = 0

    # ------------------------------------------------------------------

    def bank_of(self, addr: int) -> int:
        """Line-interleaved bank mapping (adjacent lines hit different
        banks, the standard controller optimization)."""
        return (addr // self.line_size) % self.config.n_banks

    def row_of(self, addr: int) -> int:
        return addr // (self.config.row_bytes * self.config.n_banks)

    def access(self, addr: int, cycle: int) -> int:
        """Issue a line read/write at *cycle*; returns the completion
        cycle (data fully transferred on the bus)."""
        config = self.config
        bank = self._banks[self.bank_of(addr)]
        row = self.row_of(addr)
        start = max(cycle, bank.busy_until)
        if bank.open_row == row:
            latency = config.hit_latency
            self.stats.incr(f"{self.name}.row_hits")
        elif bank.open_row is None:
            latency = config.closed_latency
            self.stats.incr(f"{self.name}.row_closed")
        else:
            latency = config.conflict_latency
            self.stats.incr(f"{self.name}.row_conflicts")
        bank.open_row = row
        data_ready = start + latency
        # The burst serializes on the shared data bus.
        burst_start = max(data_ready, self._bus_busy_until)
        done = burst_start + config.burst_cycles
        self._bus_busy_until = done
        bank.busy_until = data_ready   # bank frees once data hits the bus
        self.stats.observe(f"{self.name}.access_latency", done - cycle)
        return done

    # ------------------------------------------------------------------

    def idle_at(self, cycle: int) -> bool:
        return (self._bus_busy_until <= cycle
                and all(b.busy_until <= cycle for b in self._banks))
