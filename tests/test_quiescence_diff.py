"""Differential identity suite for the quiescence-aware kernel.

The sleep/wake scheduling in :mod:`repro.sim.engine` is a pure
performance feature: its contract is that a run with quiescence enabled
is *cycle-for-cycle identical* to the naive always-tick kernel.  This
suite enforces the contract end to end:

* every point of ``tests/identity_points.py`` (every registered builder)
  runs once with quiescence on and once with it off, and the resulting
  payloads must serialize **byte-identically** (runtime, completed ops,
  every stats counter and histogram mean, litmus observations —
  everything the cache would store).  One point, INSO at its default
  window, is a strict xfail: the kernels part there (``DIVERGENT``);
* the goldens of that table are re-asserted here for the quiescence-on
  path, so they can never silently drift to "whatever the new kernel
  produces";
* a Hypothesis property test drives random networks of toy ``Clocked``
  components with randomized send/sleep schedules against a naive
  reference engine and requires equal state traces (no missed wakes, no
  spurious state changes).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from identity_points import BENCH, CHIP, GOLDEN, POINTS, golden_row, \
    payload_bytes

from repro.experiments import SystemSpec
from repro.sim.engine import Clocked, Engine, forced_quiescence

# INSO at its default expiration window (20) is the one point where the
# two kernels part (ROADMAP item 29).  At cycle 109 of ``locks`` on 3x3
# an arrival due at 112 reaches NIC 0's ``_arrivals``: the always-tick
# kernel steps the NIC and ``_deliver_ordered`` skips the expired slots
# 54-63 then, while the quiescent kernel sleeps the NIC to the arrival
# (``_sleep_target`` returns ``_arrivals.min_due``) and skips them only
# at 112.  The lag reaches ``_broadcast_expiry``'s horizon and the
# ``_known_used`` filter.  The fix moves the benchmark's digests.
DIVERGENT = {"inso-defaults": "INSO slot expiry waits for a step the "
                              "quiescent kernel skips (ROADMAP item 29)"}


@pytest.mark.parametrize("case", [
    pytest.param(case, marks=pytest.mark.xfail(strict=True,
                                               reason=DIVERGENT[case]))
    if case in DIVERGENT else case for case in sorted(POINTS)])
def test_quiescence_payload_identity(case):
    spec = POINTS[case]
    with forced_quiescence(True):
        on = payload_bytes(spec)
    with forced_quiescence(False):
        off = payload_bytes(spec)
    assert on == off, (
        f"{case!r}: quiescence changed the simulated outcome — the "
        "sleep/wake protocol of some component is unsound (a skipped "
        "step was not a no-op, or a wake was missed)")


@pytest.mark.parametrize("case", sorted(POINTS))
def test_quiescence_on_matches_goldens(case):
    with forced_quiescence(True):
        payload = json.loads(payload_bytes(POINTS[case]))
    assert golden_row(payload) == GOLDEN[case]


def test_quiescence_actually_engages():
    """Guard against the trivial pass: the identity tests would also
    succeed if nothing ever slept.  A think-heavy run must skip ticks."""
    from repro.experiments.builders import get_builder, resolve_workload
    workload = dict(BENCH, think_scale=60.0)
    traces = resolve_workload(workload).build_traces(CHIP.n_cores)
    builder = get_builder("scorpio")
    with forced_quiescence(True):
        system = builder.system_class(CHIP, traces)
        system.run_until_done(400_000)
    engine = system.engine
    assert engine.quiescence
    skipped = engine.cycles_fast_forwarded
    assert engine.ticks_executed + skipped == engine.cycle
    assert skipped > 0, "no cycle was ever fast-forwarded"
    assert system.stats.meta["engine.cycles_fast_forwarded"] == skipped
    # Kernel accounting must stay out of result payloads (it differs
    # between modes; payloads must not).
    assert "engine.ticks_executed" not in system.stats.snapshot()


# ---------------------------------------------------------------------------
# Saturated regime: the event-scheduled hot path under heavy contention
# ---------------------------------------------------------------------------

# High injection, almost no think time: switch allocation loses, lookaheads
# get denied, VCs sit blocked behind exhausted credits.  This is the regime
# the batched VC/credit bookkeeping (wake-by-event slot parking, the
# credit helpers, the lookahead fast path) actually exercises — the
# quiet-mesh cases above barely touch those branches.
_SATURATED = dict(BENCH, ops_per_core=16, workload_scale=0.05,
                  think_scale=0.5)
SATURATED_POINTS = {
    "scorpio": SystemSpec("scorpio", CHIP, workload=_SATURATED),
    "uncorq": SystemSpec("uncorq", CHIP, workload=_SATURATED),
    "multimesh": SystemSpec("multimesh", CHIP, params={"n_meshes": 2},
                            workload=_SATURATED),
}


class TestSaturatedRegime:
    """Differential identity where the routers are genuinely congested."""

    @pytest.mark.parametrize("case", sorted(SATURATED_POINTS))
    def test_saturated_payload_identity(self, case):
        spec = SATURATED_POINTS[case]
        with forced_quiescence(True):
            on = payload_bytes(spec)
        with forced_quiescence(False):
            off = payload_bytes(spec)
        assert on == off, (
            f"{case!r}: quiescence changed a saturated run — a parked "
            "slot missed its wake-up event, or router state diverged "
            "between the sleeping and always-ticking kernels")

    @pytest.mark.parametrize("case", sorted(SATURATED_POINTS))
    def test_saturation_actually_engages(self, case):
        """Guard against the trivial pass: these runs must actually hit
        the contended branches (buffered packets, denied lookaheads), or
        the identity assertion above proves nothing about the hot path."""
        with forced_quiescence(True):
            payload = json.loads(payload_bytes(SATURATED_POINTS[case]))
        stats = payload["stats"]
        assert stats.get("noc.router.buffered", 0) > 100
        assert stats.get("noc.la.denied", 0) > 50


# ---------------------------------------------------------------------------
# Property test: toy networks against a naive reference engine
# ---------------------------------------------------------------------------

class ToyNode(Clocked):
    """A component with a randomized send schedule and event inbox.

    It sleeps as aggressively as its knowledge allows (next scheduled
    send, earliest queued due event) and relies on peers' wakes for
    everything else — exactly the discipline the real components follow.
    ``quiescent=False`` turns both the sleeping and the waking off, which
    on a naive engine reproduces the always-tick reference behaviour.
    """

    def __init__(self, idx, sends, quiescent=True):
        self.idx = idx
        self.sends = sorted(sends)        # (cycle, target, delay)
        self._next_send = 0
        self.inbox = []                   # (due_cycle, payload)
        self.trace = []                   # (cycle, kind, detail)
        self.peers = []
        self.quiescent = quiescent

    def deliver(self, due_cycle, payload):
        self.inbox.append((due_cycle, payload))
        if self.quiescent:
            self.wake(due_cycle)

    def step(self, cycle):
        due = [e for e in self.inbox if e[0] <= cycle]
        if due:
            self.inbox = [e for e in self.inbox if e[0] > cycle]
            for _due, payload in due:
                self.trace.append((cycle, "recv", payload))
        while self._next_send < len(self.sends) \
                and self.sends[self._next_send][0] <= cycle:
            _c, target, delay = self.sends[self._next_send]
            self._next_send += 1
            # Two-phase discipline: cross-component events land at
            # cycle + 1 at the earliest.
            self.peers[target].deliver(cycle + 1 + delay,
                                       (self.idx, cycle))
            self.trace.append((cycle, "send", target))
        if self.quiescent:
            nxt = self.sends[self._next_send][0] \
                if self._next_send < len(self.sends) else None
            for due_cycle, _payload in self.inbox:
                if nxt is None or due_cycle < nxt:
                    nxt = due_cycle
            self.idle_until(nxt)


def _run_toy(schedules, cycles, quiescent):
    engine = Engine(quiescence=quiescent)
    nodes = [ToyNode(idx, sends, quiescent=quiescent)
             for idx, sends in enumerate(schedules)]
    for node in nodes:
        node.peers = nodes
        engine.register(node)
    engine.run(cycles)
    return engine, nodes


@st.composite
def toy_schedules(draw):
    n_nodes = draw(st.integers(2, 5))
    schedules = []
    for _ in range(n_nodes):
        n_sends = draw(st.integers(0, 6))
        sends = [(draw(st.integers(0, 40)),
                  draw(st.integers(0, n_nodes - 1)),
                  draw(st.integers(0, 15)))
                 for _ in range(n_sends)]
        schedules.append(sends)
    return schedules


@settings(max_examples=60, deadline=None)
@given(schedules=toy_schedules())
def test_property_toy_networks_match_naive_reference(schedules):
    cycles = 80   # past every send (<=40) + delay (<=16) + chained wakes
    quiescent_engine, quiescent = _run_toy(schedules, cycles, True)
    naive_engine, naive = _run_toy(schedules, cycles, False)
    assert naive_engine.cycle == quiescent_engine.cycle == cycles
    for q_node, n_node in zip(quiescent, naive):
        assert q_node.trace == n_node.trace, (
            f"node {q_node.idx} diverged under quiescence")
        # No missed wakes: every event due within the horizon was seen.
        assert q_node.inbox == n_node.inbox
        assert not [e for e in q_node.inbox if e[0] <= cycles - 1]


@settings(max_examples=30, deadline=None)
@given(schedules=toy_schedules(), data=st.data())
def test_property_fast_forward_preserves_run_length(schedules, data):
    """Fast-forwarding must never change how many cycles run() reports,
    nor the final clock, whatever the activity pattern."""
    cycles = data.draw(st.integers(1, 120))
    quiescent_engine, _ = _run_toy(schedules, cycles, True)
    assert quiescent_engine.cycle == cycles
    assert (quiescent_engine.ticks_executed
            + quiescent_engine.cycles_fast_forwarded) == cycles
