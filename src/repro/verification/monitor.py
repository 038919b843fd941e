"""Runtime invariant monitoring for live systems.

The chip carries on-die testers and was verified with regression suites
(Sec. 4.3); the simulator analogue is a monitor that watches a running
system and fails fast — at the cycle the invariant breaks, not thousands
of cycles later when a core hangs.  Attach one to any system via
:func:`attach_monitor`; every check is also usable as a one-shot
assertion on a finished run.

Checked invariants:

* **single owner** — at most one L2 holds a line in an owner state
  (M/O/O_D), counting writeback-buffer entries that still own data;
* **SID uniqueness** — no router input port buffers two GO-REQ packets
  with the same source ID (the point-to-point ordering property of
  Sec. 3.2);
* **ESID agreement** — NICs that are waiting on the same notification
  window never disagree about the expected source;
* **credit sanity** — no credit tracker has gone negative / over
  capacity (checked structurally via occupancy bounds);
* **progress** — the system is not globally stuck: if no core finished
  an op for ``stall_limit`` cycles while work is pending, the monitor
  reports a livelock with a snapshot of where requests are held.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.noc.packet import VNet
from repro.sim.engine import Clocked
from repro.sim.journal import system_routers


class InvariantViolation(AssertionError):
    """An invariant failed; the message says which, where and when."""


@dataclass
class MonitorReport:
    """Accumulated observations of one monitoring session."""

    checks_run: int = 0
    violations: List[str] = field(default_factory=list)
    max_owner_count: int = 0
    max_router_occupancy: int = 0

    @property
    def clean(self) -> bool:
        return not self.violations


class SystemMonitor(Clocked):
    """Watches a live system; raises :class:`InvariantViolation`.

    ``interval`` trades fidelity for speed: 1 checks every cycle (tests),
    larger values sample (soaks).  ``strict`` raises on violation;
    otherwise violations accumulate in :attr:`report`.
    """

    def __init__(self, system, interval: int = 1, strict: bool = True,
                 stall_limit: int = 20_000) -> None:
        if interval < 1:
            raise ValueError("interval must be at least 1")
        self.system = system
        self.interval = interval
        self.strict = strict
        self.stall_limit = stall_limit
        self.report = MonitorReport()
        self._last_progress_cycle = 0
        self._last_completed = -1

    # ------------------------------------------------------------------

    def step(self, cycle: int) -> None:
        if cycle % self.interval:
            return
        self.report.checks_run += 1
        self.check_single_owner(cycle)
        self.check_sid_uniqueness(cycle)
        self.check_esid_agreement(cycle)
        self.check_occupancy_bounds(cycle)
        self.check_progress(cycle)
        if self.interval > 1:
            # Sampling monitors only observe at interval multiples; the
            # cycles in between are free to fast-forward past.
            self.idle_until(cycle + self.interval)


    def _fail(self, message: str) -> None:
        self.report.violations.append(message)
        if self.strict:
            raise InvariantViolation(message)

    # ------------------------------------------------------------------
    # Individual checks (each usable standalone on a finished system)
    # ------------------------------------------------------------------

    def check_single_owner(self, cycle: int = -1) -> None:
        """At most one owner per line across L2s + writeback buffers."""
        l2s = getattr(self.system, "l2s", None)
        if not l2s:
            return
        owners: Dict[int, List[int]] = {}
        for l2 in l2s:
            for line in self._owned_lines(l2):
                owners.setdefault(line, []).append(l2.node)
        for line, nodes in owners.items():
            self.report.max_owner_count = max(self.report.max_owner_count,
                                              len(nodes))
            if len(nodes) > 1:
                self._fail(f"cycle {cycle}: line {line:#x} owned by "
                           f"nodes {nodes} simultaneously")

    @staticmethod
    def _owned_lines(l2) -> Set[int]:
        owned: Set[int] = set()
        array = getattr(l2, "array", None)
        if array is not None:
            for set_index, line in array.lines():
                if getattr(line.state, "is_owner", False):
                    owned.add(array.addr_of(set_index, line))
        for line, entry in getattr(l2, "wb_buffer", {}).items():
            if not getattr(entry, "lost_ownership", False):
                owned.add(line)
        return owned

    def check_sid_uniqueness(self, cycle: int = -1) -> None:
        for router in system_routers(self.system):
            if not router.sid_invariant_holds():
                self._fail(f"cycle {cycle}: router {router.node} buffers "
                           f"two GO-REQ packets with one SID")

    def check_esid_agreement(self, cycle: int = -1) -> None:
        """The global order is one shared sequence: two NICs that have
        consumed the same number of ordered requests must be expecting
        the same source next."""
        nics = getattr(self.system, "nics", None)
        if not nics or not getattr(self.system, "ordered", False):
            return
        by_position: Dict[int, int] = {}
        for nic in nics:
            esid = getattr(nic, "esid", None)
            if esid is None:
                continue
            position = nic.tracker.consumed
            seen = by_position.setdefault(position, esid)
            if seen != esid:
                self._fail(f"cycle {cycle}: global-order position "
                           f"{position} expected as SID {seen} by one "
                           f"NIC and SID {esid} by another")

    def check_occupancy_bounds(self, cycle: int = -1) -> None:
        config = self.system.config.noc
        limit = 5 * sum(config.vc_count(vnet) for vnet in VNet)
        for router in system_routers(self.system):
            occupancy = router.occupancy()
            self.report.max_router_occupancy = max(
                self.report.max_router_occupancy, occupancy)
            if occupancy > limit:
                self._fail(f"cycle {cycle}: router {router.node} holds "
                           f"{occupancy} packets > {limit} buffers")

    def check_progress(self, cycle: int) -> None:
        cores = getattr(self.system, "cores", None)
        if not cores:
            return
        completed = sum(core.completed_ops for core in cores.values())
        if completed != self._last_completed:
            self._last_completed = completed
            self._last_progress_cycle = cycle
            return
        if self.system.all_cores_finished():
            return
        if cycle - self._last_progress_cycle > self.stall_limit:
            held = self._held_snapshot()
            self._fail(f"cycle {cycle}: no op completed for "
                       f"{cycle - self._last_progress_cycle} cycles "
                       f"with unfinished cores; held requests: {held}")

    def _held_snapshot(self) -> List[Tuple[int, List[int]]]:
        """Where ordered requests are waiting (livelock debugging aid)."""
        out = []
        for nic in getattr(self.system, "nics", ()):
            held = getattr(nic, "_held_goreq", None)
            if held:
                out.append((nic.node, sorted(held)))
        return out


def attach_monitor(system, interval: int = 1, strict: bool = True,
                   stall_limit: int = 20_000) -> SystemMonitor:
    """Create a :class:`SystemMonitor` and register it with *system*'s
    engine; returns the monitor (inspect ``monitor.report`` after)."""
    monitor = SystemMonitor(system, interval=interval, strict=strict,
                            stall_limit=stall_limit)
    system.engine.register(monitor)
    return monitor
