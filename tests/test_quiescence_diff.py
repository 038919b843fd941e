"""Differential identity suite for the quiescence-aware kernel.

The sleep/wake scheduling in :mod:`repro.sim.engine` is a pure
performance feature: its contract is that a run with quiescence enabled
is *cycle-for-cycle identical* to the naive always-tick kernel.  This
suite enforces the contract end to end:

* every registered system builder runs once with quiescence on and once
  with it off, and the resulting ``SweepResult`` payloads must serialize
  **byte-identically** (runtime, completed ops, every stats counter and
  histogram mean, litmus observations — everything the cache would
  store);
* the golden cycle/flit/request counts of ``tests/test_golden_stats.py``
  are re-asserted here for the quiescence-on path, so the goldens can
  never silently drift to "whatever the new kernel produces";
* a Hypothesis property test drives random networks of toy ``Clocked``
  components with randomized send/sleep schedules against a naive
  reference engine and requires equal state traces (no missed wakes, no
  spurious state changes).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ChipConfig
from repro.experiments import (SystemSpec, builder_names,
                               execute_system_spec)
from repro.experiments.sweep import SweepResult
from repro.sim.engine import Clocked, Engine, forced_quiescence

BENCH = {"kind": "benchmark", "name": "fft", "ops_per_core": 8,
         "workload_scale": 0.02, "think_scale": 10.0, "seed": 0}


def _cfg():
    return ChipConfig.variant(3, 3)


def _specs():
    """One spec per registered builder (mirrors test_golden_stats)."""
    cfg = _cfg()
    return {
        "scorpio": SystemSpec("scorpio", cfg, workload=BENCH),
        "directory-lpd": SystemSpec("directory", cfg,
                                    params={"scheme": "LPD"},
                                    workload=BENCH),
        "directory-ht-incf": SystemSpec("directory", cfg,
                                        params={"scheme": "HT",
                                                "incf": True},
                                        workload=BENCH),
        "multimesh": SystemSpec("multimesh", cfg,
                                params={"n_meshes": 2}, workload=BENCH),
        "tokenb": SystemSpec("tokenb", cfg, workload=BENCH),
        "inso": SystemSpec("inso", cfg,
                           params={"expiration_window": 40},
                           workload=BENCH),
        "timestamp": SystemSpec("timestamp", cfg, workload=BENCH),
        "uncorq": SystemSpec("uncorq", cfg, workload=BENCH),
        "scorpio-locks": SystemSpec("scorpio", cfg,
                                    workload={"kind": "locks",
                                              "acquisitions_per_core": 2,
                                              "seed": 1}),
        "scorpio-barrier": SystemSpec("scorpio", cfg,
                                      workload={"kind": "barrier",
                                                "phases": 2, "seed": 2}),
        "uncorq-lone-write": SystemSpec("uncorq", cfg,
                                        workload={"kind": "lone_write"}),
        "litmus-mp": SystemSpec("litmus", cfg,
                                params={"name": "message-passing",
                                        "threads": [[["W", "x"],
                                                     ["W", "y"]],
                                                    [["R", "y"],
                                                     ["R", "x"]]]}),
    }


# The same cycle/flit/request goldens test_golden_stats pins, re-checked
# on the quiescence-ON path: quiescence must never require regeneration.
GOLDEN = {
    "scorpio": {"runtime": 708, "flits": 1783, "requests": 71},
    "scorpio-locks": {"runtime": 820, "flits": 2193, "requests": 87},
    "uncorq-lone-write": {"runtime": 106, "flits": 23, "requests": 1},
}


def _payload_bytes(spec: SystemSpec) -> bytes:
    outcome = execute_system_spec(spec)
    result = SweepResult.from_outcome(spec, "fingerprint-elided", outcome)
    return json.dumps(result.payload(), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def test_every_registered_builder_is_covered():
    covered = {spec.builder for spec in _specs().values()}
    assert covered == set(builder_names()), (
        "builders without differential coverage: "
        f"{sorted(set(builder_names()) - covered)}")


@pytest.mark.parametrize("case", sorted(_specs()))
def test_quiescence_payload_identity(case):
    spec = _specs()[case]
    with forced_quiescence(True):
        on = _payload_bytes(spec)
    with forced_quiescence(False):
        off = _payload_bytes(spec)
    assert on == off, (
        f"{case!r}: quiescence changed the simulated outcome — the "
        "sleep/wake protocol of some component is unsound (a skipped "
        "step was not a no-op, or a wake was missed)")


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_quiescence_on_matches_goldens(case):
    with forced_quiescence(True):
        outcome = execute_system_spec(_specs()[case])
    observed = {
        "runtime": outcome.runtime,
        "flits": int(outcome.stats.get("noc.flits.transmitted", 0)),
        "requests": int(outcome.stats.get("nic.requests_sent", 0)),
    }
    assert observed == GOLDEN[case]


def test_quiescence_actually_engages():
    """Guard against the trivial pass: the identity tests would also
    succeed if nothing ever slept.  A think-heavy run must skip ticks."""
    from repro.experiments.builders import get_builder, resolve_workload
    cfg = _cfg()
    workload = dict(BENCH, think_scale=60.0)
    traces = resolve_workload(workload).build_traces(cfg.n_cores)
    builder = get_builder("scorpio")
    with forced_quiescence(True):
        system = builder.system_class(cfg, traces)
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
SATURATED = {"kind": "benchmark", "name": "fft", "ops_per_core": 16,
             "workload_scale": 0.05, "think_scale": 0.5, "seed": 0}


class TestSaturatedRegime:
    """Differential identity where the routers are genuinely congested."""

    @staticmethod
    def _specs():
        cfg = _cfg()
        return {
            "scorpio": SystemSpec("scorpio", cfg, workload=SATURATED),
            "uncorq": SystemSpec("uncorq", cfg, workload=SATURATED),
            "multimesh": SystemSpec("multimesh", cfg,
                                    params={"n_meshes": 2},
                                    workload=SATURATED),
        }

    @pytest.mark.parametrize("case", ["scorpio", "uncorq", "multimesh"])
    def test_saturated_payload_identity(self, case):
        spec = self._specs()[case]
        with forced_quiescence(True):
            on = _payload_bytes(spec)
        with forced_quiescence(False):
            off = _payload_bytes(spec)
        assert on == off, (
            f"{case!r}: quiescence changed a saturated run — a parked "
            "slot missed its wake-up event, or router state diverged "
            "between the sleeping and always-ticking kernels")

    @pytest.mark.parametrize("case", ["scorpio", "uncorq", "multimesh"])
    def test_saturation_actually_engages(self, case):
        """Guard against the trivial pass: these runs must actually hit
        the contended branches (buffered packets, denied lookaheads), or
        the identity assertion above proves nothing about the hot path."""
        with forced_quiescence(True):
            outcome = execute_system_spec(self._specs()[case])
        stats = outcome.stats
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
