"""Opt-in observability: bounded event journal and passive mesh sampling.

Two complementary windows into a run, both strictly on the *side channel*
(like the kernel accounting in ``StatsRegistry.meta``): nothing here may
ever reach a ``snapshot()`` or a cached sweep payload, so goldens and
cache bytes are bit-identical with the journal on, off, or at any
capacity.

:class:`EventJournal`
    A fixed-capacity ring buffer of ``(cycle, component, stage, event,
    detail)`` records.  Components carry a class-level ``journal = None``
    attribute; instrumentation sites are guarded attribute checks
    (``j = self.journal`` / ``if j is not None``), so with the journal
    detached the hot paths pay one load-and-compare per site and build no
    strings.  :func:`attach_observability` threads one journal through a
    built system.

:class:`MeshSampler`
    Periodic per-router utilization/VC-occupancy snapshots, taken at
    cycle boundaries by :meth:`Engine.run` — *never* via a watcher and
    never by keeping components awake.  The sampler only reads committed
    state, so it must not (and does not) change sleep behaviour: across a
    fast-forwarded window the state is frozen, and the samples for the
    skipped boundaries are emitted from that frozen state — exactly what
    the always-tick kernel would have read.  Sample streams are therefore
    identical under both kernels.

Both structures are plain data plus a deque, so they ride through
``state_dict``/pickle checkpoints unchanged; the sharing between the
engine and the instrumented components is preserved by the single-pickle
checkpoint body.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, List, Optional, Tuple

JOURNAL_SCHEMA = 1

DEFAULT_CAPACITY = 1024
DEFAULT_SAMPLE_INTERVAL = 64

Record = Tuple[int, str, str, str, str]


class EventJournal:
    """Fixed-capacity ring buffer of simulation events.

    Records are ``(cycle, component, stage, event, detail)`` tuples.
    When full, the oldest record is evicted and counted in
    :attr:`dropped` — the journal is a *tail* view of the run by design
    (the interesting window is almost always the end: the stall, the
    deadlock, the final drain).
    """

    __slots__ = ("capacity", "dropped", "_records")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"journal capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.dropped = 0
        self._records: deque = deque(maxlen=capacity)

    def record(self, cycle: int, component: str, stage: str, event: str,
               detail: str = "") -> None:
        records = self._records
        if len(records) == self.capacity:
            self.dropped += 1
        records.append((cycle, component, stage, event, detail))

    def records(self) -> List[Record]:
        """All retained records, oldest first."""
        return list(self._records)

    def tail(self, n: int) -> List[Record]:
        """The most recent *n* records, oldest-of-the-tail first."""
        if n <= 0:
            return []
        records = self._records
        if n >= len(records):
            return list(records)
        return list(records)[-n:]

    def clear(self) -> None:
        self._records.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._records)

    def __bool__(self) -> bool:
        # An attached-but-empty journal must still count as attached:
        # hook sites test ``is not None``, never truthiness, but be safe.
        return True

    # -- checkpoint protocol -------------------------------------------

    def state_dict(self) -> dict:
        return {"schema": JOURNAL_SCHEMA,
                "capacity": self.capacity,
                "dropped": self.dropped,
                "records": list(self._records)}

    def load_state_dict(self, state: dict) -> None:
        self.capacity = state["capacity"]
        self.dropped = state["dropped"]
        self._records = deque(state["records"], maxlen=self.capacity)

    def __getstate__(self) -> dict:
        return self.state_dict()

    def __setstate__(self, state: dict) -> None:
        self.load_state_dict(state)


class MeshSampler:
    """Passive periodic sampler of per-router state.

    Attached to an :class:`~repro.sim.engine.Engine` via
    :meth:`~repro.sim.engine.Engine.attach_sampler`; the run loop calls
    :meth:`advance_to` whenever the clock crosses a sample boundary
    (every *interval* cycles).  Each sample reads, per router:

    * ``occupancy`` — packets currently buffered in the router's input
      VCs (:meth:`Router.occupancy`), and
    * ``in_flight_flits`` — flits occupying downstream buffers as seen
      by the router's credit trackers (consumed, not-yet-returned
      credits across all output ports) — the backpressure measure.

    Reading committed state is the whole interface: the sampler never
    wakes a component, never arms a watcher, and never forces
    wakefulness the way a per-cycle stall counter does, so quiescence
    scheduling (and with it the byte-identity contract) is untouched.
    """

    def __init__(self, routers: Iterable, interval: int = DEFAULT_SAMPLE_INTERVAL) -> None:
        if interval < 1:
            raise ValueError(f"sample interval must be >= 1, got {interval}")
        self.interval = interval
        self._routers = list(routers)
        self.next_cycle = interval
        # (cycle, per-router occupancy, per-router in-flight flits)
        self.samples: List[Tuple[int, Tuple[int, ...], Tuple[int, ...]]] = []

    def advance_to(self, cycle: int) -> None:
        """Emit a sample for every boundary at or before *cycle*.

        Called after the clock moved — one tick or one fast-forward
        jump.  Boundaries crossed inside a fast-forwarded window all
        read the same (frozen) state, which is exactly the state the
        naive kernel would have observed at each of them.
        """
        while self.next_cycle <= cycle:
            self._take(self.next_cycle)
            self.next_cycle += self.interval

    def sample_now(self, cycle: int) -> None:
        """Unconditional extra sample (e.g. final state at end of run)."""
        self._take(cycle)

    def _take(self, cycle: int) -> None:
        occupancy = []
        in_flight = []
        for router in self._routers:
            occ, flits = router.utilization_sample()
            occupancy.append(occ)
            in_flight.append(flits)
        self.samples.append((cycle, tuple(occupancy), tuple(in_flight)))

    def __len__(self) -> int:
        return len(self.samples)


def system_routers(system) -> list:
    """Every main-network router of *system*, mesh-major: node ``n`` of
    mesh ``m`` sits at index ``m * n_nodes + n``."""
    return [router for mesh in system.meshes for router in mesh.routers]


def attach_observability(system, journal: Optional[EventJournal] = None,
                         sampler: Optional[MeshSampler] = None):
    """Thread *journal* and/or *sampler* through a built system.

    Sets the ``journal`` attribute on the engine, every mesh router,
    every NIC and the notification network (when present), and installs
    the sampler on the engine.  Call before the system runs; returns the
    system for chaining.  The attachment is part of the simulated
    object graph, so checkpoints round-trip it.
    """
    if journal is not None:
        system.engine.journal = journal
        for router in system_routers(system):
            router.journal = journal
        for nic in system.nics:
            nic.journal = journal
        if system.notification_network is not None:
            system.notification_network.journal = journal
    if sampler is not None:
        system.engine.attach_sampler(sampler)
    return system
