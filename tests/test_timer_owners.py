"""One timed-callback contract for every uncore endpoint that keeps one:
the snoopy L2, the memory controller and the trace core each hold an
``EventWheel`` of ``(bound method, args)`` named ``_timers``, fire a
callback in the cycle it is due, sleep until ``min_due``, and survive a
pickle round trip with callbacks in flight (the checkpoint rule: bound
methods plus plain-data args)."""

import pickle

import pytest

from repro.coherence.l2_controller import CacheConfig, L2Controller
from repro.cpu.core import CoreConfig, TraceCore
from repro.cpu.trace import Trace
from repro.memory.controller import (AddressInterleavedMap,
                                     MemoryController, OwnsMappedAddr)
from repro.sim.engine import Engine


class QuietNic:
    """A NIC nobody talks through: the owners only register with it."""

    accept_gate = None

    def add_request_listener(self, fn):
        pass

    def add_response_listener(self, fn):
        pass


class QuietL2:
    def set_completion_callback(self, fn):
        pass

    def set_l1_invalidate(self, fn):
        pass


class Recorder:
    """Callback target: logs (cycle it fired in, tag)."""

    def __init__(self, engine):
        self.engine = engine
        self.fired = []

    def fire(self, tag):
        self.fired.append((self.engine.cycle, tag))


def make_l2():
    return L2Controller(0, QuietNic(), AddressInterleavedMap([9], 32), 32,
                        CacheConfig(use_region_tracker=False))


def make_mc():
    return MemoryController(
        3, QuietNic(), OwnsMappedAddr(AddressInterleavedMap([3], 32), 3), 32)


def make_core():
    return TraceCore(0, QuietL2(), Trace([]), 32,
                     CoreConfig(l1_enabled=False))


DUE = (9, 6, 6, 4)        # pushed in this order: latest first, one tie


def armed(make):
    engine = Engine(quiescence=True)
    owner = engine.register(make())
    recorder = Recorder(engine)
    for tag, due in enumerate(DUE):
        owner._timers.push(due, (recorder.fire, (tag,)))
        owner.wake(due)
    return engine, owner, recorder


@pytest.mark.parametrize("make", [make_l2, make_mc, make_core])
class TestTimerOwner:
    def test_callbacks_fire_in_their_own_cycle(self, make):
        engine, owner, recorder = armed(make)
        engine.run(20)
        # (due cycle, push order) — never push order alone.
        assert recorder.fired == [(4, 3), (6, 1), (6, 2), (9, 0)]
        assert not owner._timers

    def test_sleeps_until_the_earliest_callback(self, make):
        engine, owner, recorder = armed(make)
        for expected in (4, 6, 9):
            engine.run(expected - engine.cycle)
            # Asleep exactly until the wheel's next bucket.
            assert owner._q_cell[0] == owner._timers.min_due == expected
            assert all(cycle < expected for cycle, _tag in recorder.fired)

    def test_pickle_round_trip_with_callbacks_in_flight(self, make):
        engine, owner, recorder = armed(make)
        engine.run(5)                      # one fired, three in flight
        clone_engine, clone_owner, clone_recorder = pickle.loads(
            pickle.dumps((engine, owner, recorder)))
        clone_engine.rebind_quiescence(True)
        engine.run(20)
        clone_engine.run(20)
        assert clone_recorder.fired == recorder.fired
        assert len(recorder.fired) == len(DUE)
        assert clone_owner._timers.min_due == owner._timers.min_due
