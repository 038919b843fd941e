"""Observability contract tests: the journal and sampler are strictly
side-channel.

The hard contract (ISSUE 9 / docs/architecture.md "Observability"):

* attaching an :class:`~repro.sim.journal.EventJournal` and/or
  :class:`~repro.sim.journal.MeshSampler` — at *any* capacity or
  interval — must leave the canonical ``SweepResult`` payload
  byte-identical to an uninstrumented run, for **every** point of
  ``tests/identity_points.py`` (every registered builder; the
  journal-flavoured sibling of ``tests/test_quiescence_diff.py``);
* the journal's event stream is itself kernel-invariant: quiescence on
  and off record the same events at the same simulated cycles;
* journal state rides through ``snapshot_system``/``restore_system``
  checkpoints, and a resumed run's journal equals an uninterrupted one;
* the ring evicts oldest-first and counts what it dropped.
"""

import dataclasses
import json

import pytest
from identity_points import BENCH, CHIP, POINTS, payload_bytes

from repro.experiments import SystemSpec, execute_point, execute_system_spec
from repro.noc.packet import set_packet_id_state
from repro.sim.engine import forced_quiescence
from repro.sim.journal import (EventJournal, MeshSampler,
                               attach_observability, system_routers)


def _instrumented_payload(spec, journal=None, sampler_interval=None,
                          checkpoint_every=None) -> bytes:
    """Payload bytes of one run (sliced with *checkpoint_every*), after
    checking that the journal's accounting reached the stats meta
    channel and nothing of it the payload."""
    systems = []

    def instrument(system):
        sampler = None
        if sampler_interval is not None:
            sampler = MeshSampler(system_routers(system),
                                  interval=sampler_interval)
        attach_observability(system, journal, sampler)
        systems.append(system)

    blob = payload_bytes(spec, instrument=instrument,
                         checkpoint_every=checkpoint_every)
    expected = set()
    if journal is not None:
        expected |= {"journal.records", "journal.dropped"}
    if sampler_interval is not None:
        expected.add("journal.samples")
    meta = systems[0].stats.meta
    assert {name for name in meta if name.startswith("journal.")} \
        == expected
    if journal is not None:
        assert meta["journal.records"] == len(journal)
    assert not any(name.startswith("journal.")
                   for name in json.loads(blob)["stats"])
    return blob


@pytest.mark.parametrize("case", sorted(POINTS))
def test_journal_payload_identity(case):
    """Journal off / on / tiny capacity with sampler / sliced — one
    payload, and ``journal.*`` meta on every run path (every builder,
    multimesh included; straight and sliced)."""
    spec = POINTS[case]
    plain = _instrumented_payload(spec)
    journaled = _instrumented_payload(spec, journal=EventJournal())
    tiny = _instrumented_payload(spec, journal=EventJournal(capacity=4),
                                 sampler_interval=32)
    sliced = _instrumented_payload(spec, journal=EventJournal(),
                                   sampler_interval=32, checkpoint_every=64)
    assert plain == journaled == tiny == sliced, (
        f"{case!r}: attaching the journal/sampler changed the simulated "
        "outcome — observability must be side-channel only")


TRACE_DRIVEN = sorted(set(POINTS) - {"litmus-mp"})


@pytest.mark.parametrize("case", TRACE_DRIVEN)
def test_journal_records_every_injection_and_delivery(case):
    """Every NIC variant injects through the one ``_inject`` body and
    hands requests over through the one ``_hand_over`` body, so both
    reach the journal whatever the ordering discipline."""
    journal = EventJournal(capacity=100_000)
    result = execute_point(
        POINTS[case],
        instrument=lambda s: attach_observability(s, journal))
    nic_records = [record for record in journal.records()
                   if record[1].startswith("nic.")]
    injects = [r for r in nic_records if r[2] == "inject"]
    delivered = [r for r in nic_records if r[2:4] == ("order", "delivered")]
    assert journal.dropped == 0
    assert len(injects) == result.stats["nic.packets_injected"] > 0
    assert len(delivered) == result.stats["nic.requests_delivered"] > 0


def _journal_records(spec, quiescence: bool):
    set_packet_id_state(0)
    journal = EventJournal(capacity=100_000)
    with forced_quiescence(quiescence):
        execute_system_spec(
            spec, instrument=lambda s: attach_observability(s, journal))
    return journal.records()


def _stop_window_spec():
    """SCORPIO with a one-deep tracker queue: windows get stopped, and a
    stop is journaled from inside the notification network's step (the
    NIC reads the cycle from the engine, not from a step of its own)."""
    cfg = dataclasses.replace(CHIP, notification=dataclasses.replace(
        CHIP.notification, tracker_queue_depth=1))
    return SystemSpec("scorpio", cfg,
                      workload=dict(BENCH, think_scale=1.0))


def test_journal_stream_is_kernel_invariant():
    """Quiescence on/off record identical event streams (packet ids are
    process-global, hence the reset before each run)."""
    for spec in (POINTS["scorpio"], _stop_window_spec()):
        on = _journal_records(spec, True)
        off = _journal_records(spec, False)
        assert on == off
    stops = [r for r in on if r[3] == "window-stopped"]
    assert stops and all(r[0] > 0 for r in stops)


def test_sampler_stream_is_kernel_invariant():
    """Fast-forwarded boundary samples read the frozen state the naive
    kernel would have observed — the streams must be equal."""
    spec = POINTS["scorpio"]
    streams = []
    for quiescence in (True, False):
        holder = {}

        def instrument(system, holder=holder):
            holder["sampler"] = MeshSampler(system_routers(system),
                                            interval=16)
            attach_observability(system, sampler=holder["sampler"])

        with forced_quiescence(quiescence):
            execute_system_spec(spec, instrument=instrument)
        streams.append(holder["sampler"].samples)
    assert streams[0] == streams[1]
    assert len(streams[0]) > 10   # the run actually got sampled


# ---------------------------------------------------------------------------
# Ring-buffer semantics
# ---------------------------------------------------------------------------

def test_ring_evicts_oldest_first():
    journal = EventJournal(capacity=3)
    for cycle in range(5):
        journal.record(cycle, "c", "s", "e", f"n={cycle}")
    assert len(journal) == 3
    assert journal.dropped == 2
    assert [r[0] for r in journal.records()] == [2, 3, 4]
    assert journal.tail(2) == [(3, "c", "s", "e", "n=3"),
                               (4, "c", "s", "e", "n=4")]
    assert journal.tail(99) == journal.records()
    assert journal.tail(0) == []


def test_capacity_validation():
    with pytest.raises(ValueError, match="capacity"):
        EventJournal(capacity=0)
    with pytest.raises(ValueError, match="interval"):
        MeshSampler([], interval=0)


def test_clear_resets_dropped():
    journal = EventJournal(capacity=1)
    journal.record(0, "c", "s", "e")
    journal.record(1, "c", "s", "e")
    assert journal.dropped == 1
    journal.clear()
    assert len(journal) == 0 and journal.dropped == 0


def test_state_dict_round_trip():
    journal = EventJournal(capacity=2)
    for cycle in range(4):
        journal.record(cycle, "c", "s", "e", str(cycle))
    clone = EventJournal()
    clone.load_state_dict(journal.state_dict())
    assert clone.capacity == 2
    assert clone.dropped == journal.dropped
    assert clone.records() == journal.records()
    # The restored deque keeps the ring bound.
    clone.record(9, "c", "s", "e")
    assert len(clone) == 2


# ---------------------------------------------------------------------------
# Checkpoint round-trip
# ---------------------------------------------------------------------------

def test_journal_rides_through_checkpoints(tmp_path):
    """Snapshot mid-run with the journal attached; the resumed run's
    journal and payload equal an uninterrupted instrumented run."""
    from repro.experiments.builders import build_spec_system
    from repro.sim.checkpoint import restore_system, snapshot_system

    spec = POINTS["scorpio"]

    # Same Engine.run call sequence as the checkpointed path (each run
    # records one "run start" event), so the journals compare equal.
    set_packet_id_state(0)
    straight_journal = EventJournal()
    straight_system = attach_observability(build_spec_system(spec),
                                           straight_journal)
    straight_system.run_until_done(300)
    straight_system.run_until_done(spec.max_cycles)
    straight = spec.harvest(straight_system)

    set_packet_id_state(0)
    system = attach_observability(build_spec_system(spec), EventJournal())
    system.run_until_done(300)
    assert len(system.engine.journal) > 0   # something already recorded
    path = str(tmp_path / "mid.ckpt")
    snapshot_system(system, path)

    _meta, restored = restore_system(path)
    # The attachment survived as one shared object across components.
    journal = restored.engine.journal
    assert isinstance(journal, EventJournal)
    assert journal.capacity == 1024
    assert journal.records() == \
        system.engine.journal.records()
    assert all(router.journal is journal
               for router in system_routers(restored))
    assert all(nic.journal is journal for nic in restored.nics)

    restored.run_until_done(spec.max_cycles)
    resumed = spec.harvest(restored)
    assert resumed.runtime == straight.runtime
    assert resumed.stats == straight.stats
    assert journal.records() == straight_journal.records()
    assert journal.dropped == straight_journal.dropped


def test_meta_accounting_present_only_when_attached():
    spec = POINTS["scorpio"]
    from repro.experiments.builders import build_spec_system

    system = build_spec_system(spec)
    system.run_until_done(spec.max_cycles)
    assert "journal.records" not in system.stats.meta

    journal = EventJournal()
    system = attach_observability(build_spec_system(spec), journal)
    sampler = MeshSampler(system_routers(system), interval=64)
    system.engine.attach_sampler(sampler)
    system.run_until_done(spec.max_cycles)
    meta = system.stats.meta
    assert meta["journal.records"] == len(journal)
    assert meta["journal.dropped"] == journal.dropped
    assert meta["journal.samples"] == len(sampler)
    # ... and none of it is in the payload-feeding snapshot.
    assert not any(key.startswith("journal.")
                   for key in system.stats.snapshot())


def test_sampler_row_shape():
    spec = POINTS["scorpio"]
    from repro.experiments.builders import build_spec_system

    system = build_spec_system(spec)
    sampler = MeshSampler(system_routers(system), interval=64)
    attach_observability(system, sampler=sampler)
    system.run_until_done(spec.max_cycles)
    n_nodes = system.config.noc.n_nodes
    # One row per interval boundary, time-ordered: (cycle, occupancy
    # per router, in-flight flits per router), routers in node order.
    assert len(sampler) > 0
    assert [row[0] for row in sampler.samples] == \
        [64 * (index + 1) for index in range(len(sampler))]
    for _cycle, occupancy, in_flight in sampler.samples:
        assert len(occupancy) == len(in_flight) == n_nodes
        assert all(value >= 0 for value in occupancy + in_flight)
