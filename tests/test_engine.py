"""Unit tests for the cycle-driven simulation kernel."""

import pytest

from repro.sim.engine import (WAKE_NEVER, Clocked, Engine,
                              default_quiescence, forced_quiescence)
from repro.sim.stats import Histogram, StatsRegistry


class Counter(Clocked):
    def __init__(self):
        self.value = 0
        self._next = 0

    def step(self, cycle):
        self._next = self.value + 1

    def commit(self, cycle):
        self.value = self._next


class Echo(Clocked):
    """Reads another component's committed state during step."""

    def __init__(self, source):
        self.source = source
        self.seen = []

    def step(self, cycle):
        self.seen.append(self.source.value)

    def commit(self, cycle):
        pass


class TestEngine:
    def test_tick_advances_cycle(self):
        engine = Engine()
        assert engine.cycle == 0
        engine.tick()
        assert engine.cycle == 1

    def test_run_returns_cycles_simulated(self):
        engine = Engine()
        assert engine.run(10) == 10
        assert engine.cycle == 10

    def test_component_steps_every_cycle(self):
        engine = Engine()
        counter = engine.register(Counter())
        engine.run(5)
        assert counter.value == 5

    def test_two_phase_isolation(self):
        # Echo reads the counter's committed value: regardless of
        # registration order, it must see the previous cycle's value.
        engine = Engine()
        counter = Counter()
        echo = Echo(counter)
        engine.register(counter)
        engine.register(echo)
        engine.run(3)
        assert echo.seen == [0, 1, 2]

    def test_two_phase_isolation_reversed_order(self):
        engine = Engine()
        counter = Counter()
        echo = Echo(counter)
        engine.register(echo)
        engine.register(counter)
        engine.run(3)
        assert echo.seen == [0, 1, 2]

    def test_until_predicate_stops_early(self):
        engine = Engine()
        counter = engine.register(Counter())
        ran = engine.run(100, until=lambda: counter.value >= 7)
        assert ran == 7

    def test_stop_request(self):
        engine = Engine()
        counter = engine.register(Counter())
        engine.add_watcher(lambda cycle: engine.stop() if cycle >= 4 else None)
        engine.run(100)
        assert engine.cycle == 4

    def test_register_rejects_non_clocked(self):
        engine = Engine()
        with pytest.raises(TypeError):
            engine.register(object())

    def test_stop_between_runs_applies_to_next_run(self):
        # Regression: run() used to clear _stop_requested unconditionally,
        # silently discarding a stop requested between runs.  Semantics
        # now: a pending stop makes the next run() simulate zero cycles
        # and is consumed by it.
        engine = Engine()
        counter = engine.register(Counter())
        engine.run(3)
        engine.stop()
        assert engine.run(10) == 0
        assert engine.cycle == 3 and counter.value == 3
        # Consumed: the run after that is unaffected.
        assert engine.run(2) == 2
        assert counter.value == 5

    def test_stop_during_run_is_consumed(self):
        engine = Engine()
        engine.register(Counter())
        engine.add_watcher(lambda cycle: engine.stop() if cycle >= 2 else None)
        engine.run(10)
        assert engine.cycle == 2
        engine._watchers.clear()
        assert engine.run(3) == 3     # no stale stop request


class Sleeper(Clocked):
    """Steps, then sleeps for a fixed period."""

    def __init__(self, period):
        self.period = period
        self.step_cycles = []

    def step(self, cycle):
        self.step_cycles.append(cycle)
        self.idle_until(cycle + self.period)


class TestQuiescence:
    def test_idle_until_skips_ticks(self):
        engine = Engine(quiescence=True)
        sleeper = engine.register(Sleeper(10))
        engine.run(25)
        assert sleeper.step_cycles == [0, 10, 20]
        assert engine.cycle == 25
        assert engine.ticks_executed + engine.cycles_fast_forwarded == 25

    def test_fast_forward_disabled_by_watcher(self):
        engine = Engine(quiescence=True)
        engine.register(Sleeper(10))
        observed = []
        engine.add_watcher(observed.append)
        engine.run(20)
        assert engine.cycles_fast_forwarded == 0
        assert observed == list(range(1, 21))

    def test_watcher_armed_mid_run_stops_fast_forward(self):
        # The docstring promise "an armed watcher observes every cycle"
        # must hold even for a watcher added while run() is in flight.
        engine = Engine(quiescence=True)

        observed = []

        class Armer(Clocked):
            def step(self, cycle):
                if cycle == 5:
                    engine.add_watcher(observed.append)
                self.idle_until(None if cycle >= 5 else cycle + 5)

        engine.register(Armer())
        engine.run(20)
        assert observed == list(range(6, 21))

    def test_quiescence_off_ignores_protocol(self):
        engine = Engine(quiescence=False)
        sleeper = engine.register(Sleeper(10))
        engine.run(25)
        assert sleeper.step_cycles == list(range(25))
        assert engine.cycles_fast_forwarded == 0

    def test_unregistered_component_protocol_is_noop(self):
        sleeper = Sleeper(10)
        sleeper.step(0)           # idle_until without an engine
        sleeper.wake()
        assert sleeper.step_cycles == [0]

    def test_wake_wins_over_sleep_declared_same_tick(self):
        # A sleeps forever during its step; B (later in order) hands it
        # work the same tick.  The stale declaration must be discarded.
        class Target(Clocked):
            def __init__(self):
                self.inbox = []
                self.seen = []

            def step(self, cycle):
                due = [e for e in self.inbox if e[0] <= cycle]
                self.inbox = [e for e in self.inbox if e[0] > cycle]
                self.seen.extend(due)
                self.idle_until(min((e[0] for e in self.inbox),
                                    default=None))

        class Producer(Clocked):
            def __init__(self, target):
                self.target = target

            def step(self, cycle):
                if cycle == 3:
                    self.target.inbox.append((5, "hello"))
                    self.target.wake(5)
                self.idle_until(None if cycle >= 3 else cycle + 1)

        engine = Engine(quiescence=True)
        target = engine.register(Target())
        engine.register(Producer(target))
        engine.run(10)
        assert target.seen == [(5, "hello")]

    def test_empty_engine_fast_forwards_whole_run(self):
        engine = Engine(quiescence=True)
        assert engine.run(1000) == 1000
        assert engine.ticks_executed == 1
        assert engine.cycles_fast_forwarded == 999

    def test_run_until_with_state_predicate_across_sleep(self):
        engine = Engine(quiescence=True)
        sleeper = engine.register(Sleeper(7))
        ran = engine.run(100, until=lambda: len(sleeper.step_cycles) >= 3)
        assert sleeper.step_cycles == [0, 7, 14]
        assert ran == 15

    def test_run_until_clock_predicate_stops_inside_gap(self):
        # Regression: a predicate that reads the clock must stop at the
        # exact cycle the naive kernel would, even when that cycle falls
        # strictly inside a quiescence fast-forward window.  The engine
        # used to jump the whole gap first and check the predicate after,
        # overshooting the stop cycle.
        engine = Engine(quiescence=True)
        engine.register(Sleeper(100))     # asleep for cycles 1..99
        ran = engine.run(200, until=lambda: engine.cycle >= 50)
        assert engine.cycle == 50
        assert ran == 50

        naive = Engine(quiescence=False)
        naive.register(Sleeper(100))
        assert naive.run(200, until=lambda: naive.cycle >= 50) == ran
        assert naive.cycle == engine.cycle

    def test_forced_quiescence_overrides_default(self):
        with forced_quiescence(False):
            assert default_quiescence() is False
            assert Engine().quiescence is False
        with forced_quiescence(True):
            assert Engine().quiescence is True
        assert default_quiescence() is True   # env default restored

    def test_kernel_accounting_shape(self):
        engine = Engine(quiescence=True)
        engine.register(Sleeper(5))
        engine.run(12)
        acct = engine.kernel_accounting()
        assert acct["quiescence"] == 1.0
        assert acct["cycles"] == 12.0
        assert acct["ticks_executed"] + acct["cycles_fast_forwarded"] == 12.0

    def test_wake_never_constant_is_far_future(self):
        assert WAKE_NEVER > 10**15


class TestStats:
    def test_counters(self):
        stats = StatsRegistry()
        stats.incr("x")
        stats.incr("x", 4)
        assert stats.counter("x") == 5
        assert stats.counter("missing") == 0

    def test_histogram_mean_min_max(self):
        hist = Histogram()
        for v in (1, 2, 3, 4):
            hist.add(v)
        assert hist.mean == 2.5
        assert hist.minimum == 1
        assert hist.maximum == 4
        assert hist.count == 4

    def test_histogram_percentile(self):
        hist = Histogram()
        for v in range(101):
            hist.add(v)
        assert hist.percentile(50) == 50
        assert hist.percentile(100) == 100
        assert hist.percentile(0) == 0

    def test_empty_histogram(self):
        hist = Histogram()
        assert hist.mean == 0.0
        assert hist.percentile(50) == 0.0
        assert hist.minimum is None

    def test_snapshot_includes_means(self):
        stats = StatsRegistry()
        stats.observe("lat", 10)
        stats.observe("lat", 20)
        stats.incr("n")
        snap = stats.snapshot()
        assert snap["lat.mean"] == 15.0
        assert snap["lat.count"] == 2.0
        assert snap["n"] == 1.0

    def test_snapshot_prefix_filter(self):
        stats = StatsRegistry()
        stats.incr("a.x")
        stats.incr("b.y")
        snap = stats.snapshot(prefixes=["a."])
        assert "a.x" in snap and "b.y" not in snap

    def test_meta_excluded_from_snapshot(self):
        stats = StatsRegistry()
        stats.incr("real.outcome")
        stats.set_meta("engine.cycles_fast_forwarded", 123)
        snap = stats.snapshot()
        assert "real.outcome" in snap
        assert "engine.cycles_fast_forwarded" not in snap
        assert stats.get_meta("engine.cycles_fast_forwarded") == 123.0
        assert stats.get_meta("missing", 7.0) == 7.0


class _EngineBox:
    """Minimal system shape for snapshot_system: just an engine."""

    def __init__(self, engine):
        self.engine = engine


class TestCheckpointRoundTrip:
    """Engine edge cases across a snapshot/restore round trip: pending
    stop requests, quiescence-mode flips (the mode must never leak into
    or out of a checkpoint), and idle_until cells."""

    def _round_trip(self, engine, tmp_path):
        from repro.sim.checkpoint import restore_system, snapshot_system
        path = tmp_path / "engine.ckpt"
        snapshot_system(_EngineBox(engine), str(path))
        _meta, box = restore_system(str(path))
        return box.engine

    def test_pending_stop_survives_restore(self, tmp_path):
        engine = Engine()
        engine.register(Counter())
        engine.run(3)
        engine.stop()
        restored = self._round_trip(engine, tmp_path)
        counter = restored._components[0]
        # The pending stop travels: the restored engine's next run
        # simulates zero cycles and consumes it, exactly like the
        # original would have.
        assert restored.run(10) == 0
        assert restored.cycle == 3 and counter.value == 3
        assert restored.run(2) == 2
        assert counter.value == 5

    def test_idle_cells_survive_restore(self, tmp_path):
        engine = Engine(quiescence=True)
        engine.register(Sleeper(10))
        engine.run(5)           # stepped at 0, now sleeping until 10
        with forced_quiescence(True):
            restored = self._round_trip(engine, tmp_path)
        sleeper = restored._components[0]
        assert sleeper.step_cycles == [0]
        before = restored.cycles_fast_forwarded
        restored.run(20)        # cycles 5..24
        # The sleep target survived: no step until 10, and the restored
        # engine keeps fast-forwarding across the idle gaps.
        assert sleeper.step_cycles == [0, 10, 20]
        assert restored.cycles_fast_forwarded > before

    def test_snapshot_on_restore_off(self, tmp_path):
        engine = Engine(quiescence=True)
        engine.register(Sleeper(10))
        engine.run(5)
        with forced_quiescence(False):
            restored = self._round_trip(engine, tmp_path)
        sleeper = restored._components[0]
        assert restored.quiescence is False
        assert sleeper._q_cell is None      # protocol fully detached
        restored.run(20)
        # Off mode ticks every component every cycle (idle_until becomes
        # a no-op, exactly as in a natively-off engine) and never
        # fast-forwards again.
        assert sleeper.step_cycles == [0] + list(range(5, 25))
        assert restored.cycles_fast_forwarded == \
            engine.cycles_fast_forwarded    # none added after restore

    def test_snapshot_off_restore_on(self, tmp_path):
        engine = Engine(quiescence=False)
        engine.register(Sleeper(10))
        engine.run(5)
        with forced_quiescence(True):
            restored = self._round_trip(engine, tmp_path)
        sleeper = restored._components[0]
        assert restored.quiescence is True
        assert sleeper._q_cell is not None  # protocol re-attached
        before = restored.cycles_fast_forwarded
        restored.run(20)
        # Off mode stepped every cycle up to the snapshot; from the
        # restore on, the sleep protocol re-engages (step at 5 declares
        # idle until 15, and so on) and fast-forwarding resumes.
        assert sleeper.step_cycles == [0, 1, 2, 3, 4, 5, 15]
        assert restored.cycles_fast_forwarded > before

    def test_env_var_controls_restored_mode(self, tmp_path, monkeypatch):
        # The environment of the *restoring* process decides the mode —
        # REPRO_QUIESCENCE=0 must win over a snapshot taken with it on.
        engine = Engine(quiescence=True)
        engine.register(Sleeper(10))
        engine.run(5)
        monkeypatch.setenv("REPRO_QUIESCENCE", "0")
        restored = self._round_trip(engine, tmp_path)
        assert restored.quiescence is False
        monkeypatch.setenv("REPRO_QUIESCENCE", "1")
        restored = self._round_trip(engine, tmp_path)
        assert restored.quiescence is True
