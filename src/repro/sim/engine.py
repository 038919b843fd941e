"""Cycle-driven simulation kernel with quiescence-aware scheduling.

The kernel models synchronous hardware with a two-phase clock:

1. ``step`` — every registered component reads its *current* inputs and
   computes outputs.  Outputs written during ``step`` must go into "next
   state" holding registers so that evaluation order between components
   cannot change behaviour.
2. ``commit`` — every component atomically moves its "next state" into
   its visible state, completing the clock edge.

Components register with an :class:`Engine`; registration order is the
(deterministic) evaluation order within each phase.  The engine draws no
random numbers: a run is reproducible because its inputs (seeded traces)
and that order are.

Quiescence
----------
Most components of a large mesh are idle most of the time, so the engine
supports an *activity-driven* mode (on by default): a component whose
``step``/``commit`` are provably no-ops until some future cycle declares
that with :meth:`Clocked.idle_until`, and anything that hands it new work
(a flit arrival, a queued credit, a scheduled callback) revokes the
declaration with :meth:`Clocked.wake`.  Sleeping components are skipped
by :meth:`Engine.tick`, and :meth:`Engine.run` fast-forwards the global
clock in one jump across windows in which *every* component is asleep.

The contract that keeps results cycle-for-cycle identical to the naive
always-tick engine:

* a component may only sleep across cycles in which its ``step`` and
  ``commit`` would have no observable effect (including stats counters —
  a per-cycle stall counter must be counted per stretch instead, as
  :class:`~repro.cpu.core.TraceCore` counts the cycles at its AHB cap);
* every channel that can end such a stretch must ``wake`` the component
  with the cycle the new work becomes due;
* ``wake`` always wins over a sleep declared earlier in the same tick
  (the declaration was made without knowledge of the new event).

Credits land at the clock edge
------------------------------
A credit a router gets back during cycle *c* is visible the cycle after
(``CREDIT_DELAY`` in :mod:`repro.noc.vc`).  Rather than wake the router
for a step that only pops it, the router queues the return in
:attr:`Engine.landings`; the engine applies every queued return after
the commit phase of *c* (through ``Router._release_credit``) and wakes
the router for *c + 1* only when the return released something.  A
credit returned outside a tick applies at once.

``idle_until``/``wake`` are no-ops on unregistered components and on
engines constructed with ``quiescence=False``, so components are
oblivious to which mode they run under.  :func:`forced_quiescence`
switches the default off within a ``with`` block — that is how the
differential identity suite compares the two kernels.

A run stops on its cycle budget or on an ``until`` predicate of
simulated state (every core finished, say).  State is frozen across a
fast-forwarded window, so the predicate is asked once per executed tick
and both kernels stop at the same cycle; a predicate that reads the
clock instead would see the jump.

Event wheels
------------
:class:`EventWheel` is the per-component companion to the sleep cells: a
ring of due-cycle buckets for inbound events (flit arrivals, credit
returns, lookaheads).  A busy component pops exactly the bucket for the
current cycle instead of re-partitioning flat event lists every tick, so
its per-cycle cost tracks *events due*, not *events queued*.  The wheel
changes bookkeeping only — each push still wakes the owner for the due
cycle, and pop order equals the old scan order under that contract.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, List, Optional, Tuple

# A wake cycle no simulation reaches: "asleep until woken".
WAKE_NEVER = 1 << 62

_FORCED_DEFAULT: Optional[bool] = None


class EventWheel:
    """A ring of due-cycle buckets for one component's inbound events.

    This is the event side of the quiescence machinery: where a sleep
    cell records *when a component must next run*, an EventWheel records
    *what is due when*, so an awake component touches only the bucket for
    the current cycle instead of re-partitioning one flat list per tick.
    Components keep their wake discipline unchanged — every ``push`` must
    be paired with a ``wake(due)`` on the owning component, exactly as
    queue appends were before.

    Ordering: :meth:`pop_due` returns items in (due cycle, push order).
    Under the wake contract a component pops every bucket at exactly its
    due cycle, which makes this identical to the flat-list scan the
    routers and NICs used previously; the differential identity suite is
    the enforcement.

    The wheel is plain data (a dict of lists plus two ints) so it
    round-trips through ``state_dict``/pickle with no special handling,
    and its contents evolve identically under both quiescence modes —
    checkpoints stay byte-identical.
    """

    __slots__ = ("_buckets", "min_due", "_count")

    def __init__(self) -> None:
        self._buckets: dict = {}
        # Earliest due cycle of any queued item; WAKE_NEVER when empty
        # (so sleep-target math can min() it without None checks).
        self.min_due = WAKE_NEVER
        self._count = 0

    def push(self, due: int, item) -> None:
        bucket = self._buckets.get(due)
        if bucket is None:
            self._buckets[due] = [item]
            if due < self.min_due:
                self.min_due = due
        else:
            bucket.append(item)
        self._count += 1

    def pop_due(self, cycle: int) -> list:
        """Remove and return every item due at or before *cycle*."""
        if self.min_due > cycle:
            return []
        buckets = self._buckets
        items = buckets.pop(self.min_due)
        if buckets:
            late = [due for due in buckets if due <= cycle]
            if late:
                late.sort()
                for due in late:
                    items += buckets.pop(due)
            self.min_due = min(buckets) if buckets else WAKE_NEVER
        else:
            self.min_due = WAKE_NEVER
        self._count -= len(items)
        return items

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count != 0

    # Pickle support: __slots__ classes have no __dict__, so spell the
    # state out (state_dict payloads embed wheels inside component dicts).
    def __getstate__(self) -> tuple:
        return (self._buckets, self.min_due, self._count)

    def __setstate__(self, state: tuple) -> None:
        self._buckets, self.min_due, self._count = state


def default_quiescence() -> bool:
    """The process-wide default for ``Engine(quiescence=None)``: on,
    unless :func:`forced_quiescence` says otherwise."""
    return True if _FORCED_DEFAULT is None else _FORCED_DEFAULT


@contextmanager
def forced_quiescence(enabled: Optional[bool]):
    """Force the engine-default quiescence mode within a ``with`` block
    (``None`` restores the default, on).  Used by the differential
    test harness and the ``repro bench`` timing harness."""
    global _FORCED_DEFAULT
    previous = _FORCED_DEFAULT
    _FORCED_DEFAULT = enabled
    try:
        yield
    finally:
        _FORCED_DEFAULT = previous


class Clocked:
    """Base class for anything driven by the simulation clock.

    Subclasses override :meth:`step` (combinational work, may read any
    component's *committed* state) and :meth:`commit` (clock edge, moves
    next-state into state).  Either may be a no-op.
    """

    # Installed by Engine.register: the engine under either kernel, the
    # sleep cell only when it runs with quiescence.  A None cell (also
    # while unregistered) makes the sleep/wake protocol a no-op.
    _q_cell: Optional[list] = None
    _q_engine: Optional["Engine"] = None

    def step(self, cycle: int) -> None:  # pragma: no cover - interface
        """Compute this cycle's outputs from committed state."""

    def commit(self, cycle: int) -> None:  # pragma: no cover - interface
        """Advance state at the clock edge."""

    # -- quiescence protocol -------------------------------------------

    def idle_until(self, cycle: Optional[int]) -> None:
        """Declare this component quiescent until *cycle* (``None`` =
        until an external :meth:`wake`).

        Call it only when every skipped ``step``/``commit`` up to *cycle*
        would be a no-op.  A declaration made during a tick takes effect
        *after* the tick (the same cycle's commit still runs), and is
        discarded if a wake arrives later in the same tick.
        """
        cell = self._q_cell
        if cell is not None:
            engine = self._q_engine
            target = WAKE_NEVER if cycle is None else cycle
            if engine._ticking:
                engine._pending_sleeps.append((cell, target, cell[1]))
            else:
                cell[0] = target

    def wake(self, cycle: Optional[int] = None) -> None:
        """Ensure this component ticks again no later than *cycle*
        (``None`` = the engine's current cycle, i.e. immediately)."""
        cell = self._q_cell
        if cell is None:
            return
        cell[1] += 1      # invalidate any sleep declared this tick
        if cycle is None:
            cycle = self._q_engine._cycle
        if cycle < cell[0]:
            cell[0] = cycle

    # -- checkpoint protocol -------------------------------------------

    def state_dict(self) -> dict:
        """A serializable view of this component's simulated state.

        Excludes the engine-attachment attributes (``_q_cell`` /
        ``_q_engine``): they describe how the *kernel runs*, not what
        the simulation computed, and must never leak the quiescence
        mode into a checkpoint (the mode-invariance rule).
        :meth:`Engine.rebind_quiescence` re-links them after a restore.
        """
        return {k: v for k, v in self.__dict__.items()
                if k not in ("_q_cell", "_q_engine")}

    def load_state_dict(self, state: dict) -> None:
        """Install a :meth:`state_dict` (engine attachment unchanged)."""
        self.__dict__.update(state)

    def __getstate__(self) -> dict:
        return self.state_dict()

    def __setstate__(self, state: dict) -> None:
        self.load_state_dict(state)


class Engine:
    """Deterministic two-phase cycle-driven simulation engine."""

    # Observability attachments (repro.sim.journal), opt-in and strictly
    # side-channel.  Class-level defaults so checkpoints taken before
    # these existed restore cleanly (missing instance attrs fall back
    # here) and so the unattached hot path costs one load per check.
    journal = None
    _sampler = None

    def __init__(self, quiescence: Optional[bool] = None) -> None:
        self._components: List[Clocked] = []
        # Per-phase entries of (cell, bound method), resolved once at
        # registration: the tick loop runs hundreds of thousands of times
        # per simulation, and per-tick attribute lookups dominate its
        # overhead.  ``cell`` is the component's shared sleep record,
        # ``[wake_cycle, wake_serial]``: the component runs in a phase
        # iff ``cell[0] <= cycle``.
        self._step_entries: List[Tuple[list, Callable[[int], None]]] = []
        self._commit_entries: List[Tuple[list, Callable[[int], None]]] = []
        self._cells: List[list] = []
        self._cycle = 0
        self.quiescence = default_quiescence() if quiescence is None \
            else bool(quiescence)
        self._ticking = False
        self._last_tick_idle = False
        # Sleep declarations made mid-tick: (cell, target, serial at the
        # time of the request).  Applied after the commit phase, unless a
        # wake bumped the cell's serial since (wakes win).
        self._pending_sleeps: List[Tuple[list, int, int]] = []
        # Credits returned to routers this tick (module docstring):
        # (router, port, vnet, vc, flits), applied after the commit
        # phase in return order.  Empty between ticks.
        self.landings: List[tuple] = []
        # Kernel accounting (diagnostics only — deliberately *not* part
        # of any StatsRegistry snapshot, so quiescence never leaks into
        # cached sweep payloads; see StatsRegistry.set_meta).
        self.ticks_executed = 0
        self.idle_ticks = 0
        self.cycles_fast_forwarded = 0

    @property
    def cycle(self) -> int:
        """The number of completed clock cycles."""
        return self._cycle

    def register(self, component: Clocked) -> Clocked:
        """Add *component* to the evaluation list and return it."""
        if not isinstance(component, Clocked):
            raise TypeError(f"{component!r} is not a Clocked component")
        self._components.append(component)
        # Skip the step/commit calls for components that never override
        # them — a large fraction of per-cycle overhead in big systems.
        # (Consequence: a step/commit method assigned onto an instance
        # *after* registration is not seen; subclasses must override.)
        has_step = type(component).step is not Clocked.step
        has_commit = type(component).commit is not Clocked.commit
        if not (has_step or has_commit):
            return component
        cell = [0, 0]          # [wake_cycle, wake_serial]; 0 = awake
        self._cells.append(cell)
        component._q_engine = self
        if self.quiescence:
            component._q_cell = cell
        if has_step:
            self._step_entries.append((cell, component.step))
        if has_commit:
            self._commit_entries.append((cell, component.commit))
        return component

    def rebind_quiescence(self, enabled: Optional[bool] = None) -> None:
        """Re-resolve the quiescence mode and re-link every component's
        sleep cell.

        Called after a checkpoint restore: the mode is a property of the
        *running process* (:func:`forced_quiescence`), never of the
        snapshot, so a snapshot taken under either mode restores
        correctly under either.  Every component is linked to this
        engine; enabling attaches the cells so components lazily
        re-declare sleep; disabling detaches them and wakes every cell so
        the plain always-tick loop resumes.
        """
        self.quiescence = default_quiescence() if enabled is None \
            else bool(enabled)
        for entries in (self._step_entries, self._commit_entries):
            for cell, method in entries:
                component = method.__self__
                component._q_engine = self
                if self.quiescence:
                    component._q_cell = cell
                else:
                    component._q_cell = None
                    cell[1] += 1
                    cell[0] = 0

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # The quiescence mode belongs to the restoring process, not the
        # snapshot: re-resolve it and re-link the sleep cells that the
        # components' own __getstate__ deliberately dropped.
        self.rebind_quiescence()

    def attach_sampler(self, sampler) -> None:
        """Install a passive cycle-boundary sampler (a
        :class:`~repro.sim.journal.MeshSampler`).

        A sampler does not disable fast-forwarding: it only reads
        committed state at sample boundaries, and state is frozen across
        a fast-forwarded window, so the boundary samples emitted after a
        jump equal what the always-tick kernel would have read.  Attach
        before :meth:`run`; samplers attached mid-run take effect on the
        next run call.
        """
        self._sampler = sampler

    # ------------------------------------------------------------------
    # Quiescence plumbing (Clocked.idle_until / Clocked.wake act on the
    # cells directly; a sleep declared mid-tick waits in _pending_sleeps)
    # ------------------------------------------------------------------

    def _earliest_wake(self) -> int:
        """The earliest cycle any component is due (WAKE_NEVER if every
        component sleeps unconditionally, or none is registered)."""
        cells = self._cells
        if not cells:
            return WAKE_NEVER
        return min(cell[0] for cell in cells)

    # ------------------------------------------------------------------
    # Clocking
    # ------------------------------------------------------------------

    def tick(self) -> None:
        """Advance the simulation by exactly one cycle."""
        cycle = self._cycle
        ran = False
        self._ticking = True
        for cell, step in self._step_entries:
            if cell[0] <= cycle:
                step(cycle)
                ran = True
        for cell, commit in self._commit_entries:
            if cell[0] <= cycle:
                commit(cycle)
                ran = True
        self._ticking = False
        if self.landings:
            # The clock edge: a return that released a waiter wakes its
            # router for the next cycle (before the pending sleeps, so
            # the wake wins over one declared this tick).
            for router, port, vnet, vc, flits in self.landings:
                if router._release_credit(port, vnet, vc, flits):
                    router.wake(cycle + 1)
            self.landings.clear()
        if self._pending_sleeps:
            for cell, target, serial in self._pending_sleeps:
                if cell[1] == serial:   # no wake arrived after the request
                    cell[0] = target
            self._pending_sleeps.clear()
        self._cycle = cycle + 1
        self.ticks_executed += 1
        self._last_tick_idle = not ran
        if not ran:
            self.idle_ticks += 1

    def run(self, cycles: int, until: Optional[Callable[[], bool]] = None) -> int:
        """Run for at most *cycles* cycles.

        If *until* is given, stop as soon as it returns True — asked
        after every executed tick.  It must be a function of simulated
        state: that state is frozen across a fast-forwarded window, so
        the predicate cannot turn True inside one, and both kernels stop
        at the same cycle.  Returns the number of cycles actually
        simulated.
        """
        start = self._cycle
        end = start + cycles
        tick = self.tick
        quiescence = self.quiescence
        sampler = self._sampler
        journal = self.journal
        if journal is not None:
            journal.record(start, "engine", "run", "start",
                           f"budget={cycles}")
        while self._cycle < end:
            tick()
            if sampler is not None and self._cycle >= sampler.next_cycle:
                sampler.advance_to(self._cycle)
            if until is not None and until():
                break
            if quiescence and self._last_tick_idle:
                # Nothing ran this cycle: no state changed, and nothing
                # can until the earliest declared wake.  Jump there.
                target = min(self._earliest_wake(), end)
                if target > self._cycle:
                    self.cycles_fast_forwarded += target - self._cycle
                    self._cycle = target
                    if sampler is not None \
                            and self._cycle >= sampler.next_cycle:
                        # State is frozen across the gap: boundary
                        # samples read exactly what per-cycle ticking
                        # would have.
                        sampler.advance_to(self._cycle)
        return self._cycle - start

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def kernel_accounting(self) -> dict:
        """Diagnostic counters for the quiescence kernel.

        Keep these out of result payloads: they describe how the
        simulation *ran*, not what it computed, and differ between
        quiescence modes even though the simulated outcome is identical.
        """
        return {
            "quiescence": float(self.quiescence),
            "cycles": float(self._cycle),
            "ticks_executed": float(self.ticks_executed),
            "idle_ticks": float(self.idle_ticks),
            "cycles_fast_forwarded": float(self.cycles_fast_forwarded),
        }
