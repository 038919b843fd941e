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

    def test_register_rejects_non_clocked(self):
        engine = Engine()
        with pytest.raises(TypeError):
            engine.register(object())


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

    def test_state_predicate_asked_once_per_tick_across_sleep(self):
        # A state predicate is asked after every executed tick and never
        # inside a fast-forwarded window (state is frozen there), and
        # both kernels stop at the same cycle.
        class Periodic(Clocked):
            """Works every 100 cycles; a no-op step in between."""

            def __init__(self):
                self.worked = []
                self._due = 0

            def step(self, cycle):
                if cycle >= self._due:
                    self.worked.append(cycle)
                    self._due = cycle + 100
                self.idle_until(self._due)

        def run(quiescence):
            engine = Engine(quiescence=quiescence)
            periodic = engine.register(Periodic())
            asked = []

            def until():
                asked.append(engine.cycle)
                return len(periodic.worked) >= 3
            ran = engine.run(1000, until=until)
            return engine, periodic, asked, ran

        engine, periodic, asked, ran = run(True)
        assert periodic.worked == [0, 100, 200]
        assert ran == 201 and engine.cycle == 201
        assert asked == [1, 2, 101, 102, 201]
        assert len(asked) == engine.ticks_executed
        assert engine.cycles_fast_forwarded == 201 - 5

        naive, naive_periodic, naive_asked, naive_ran = run(False)
        assert naive_ran == ran and naive.cycle == engine.cycle
        assert naive_periodic.worked == periodic.worked
        assert naive_asked == list(range(1, 202))

    def test_forced_quiescence_overrides_default(self):
        with forced_quiescence(False):
            assert default_quiescence() is False
            assert Engine().quiescence is False
        with forced_quiescence(True):
            assert Engine().quiescence is True
        assert default_quiescence() is True   # the default restored

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

    def test_histogram_summary_exact_over_many_adds(self):
        hist = Histogram()
        for value in range(10_000):
            hist.add(float(value))
        assert hist.count == 10_000
        assert hist.total == sum(range(10_000))
        assert hist.mean == pytest.approx(4999.5)
        assert hist.minimum == 0.0 and hist.maximum == 9999.0

    def test_empty_histogram(self):
        hist = Histogram()
        assert hist.mean == 0.0
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

    def test_snapshot_mean_count_exact_over_many_observes(self):
        stats = StatsRegistry()
        for value in range(100):
            stats.observe("x", float(value))
        assert stats.snapshot() == {"x.mean": 49.5, "x.count": 100.0}

    def test_snapshot_holds_every_counter_histogram_and_gauge(self):
        stats = StatsRegistry()
        stats.incr("a.x")
        stats.observe("b.lat", 4)
        stats.set_gauge("ts.reorder_peak.node0", 3)
        assert stats.snapshot() == {"a.x": 1.0, "b.lat.mean": 4.0,
                                    "b.lat.count": 1.0,
                                    "ts.reorder_peak.node0": 3}

    def test_meta_excluded_from_snapshot(self):
        stats = StatsRegistry()
        stats.incr("real.outcome")
        stats.set_meta("engine.cycles_fast_forwarded", 123)
        snap = stats.snapshot()
        assert "real.outcome" in snap
        assert "engine.cycles_fast_forwarded" not in snap
        assert stats.meta == {"engine.cycles_fast_forwarded": 123.0}


class _EngineBox:
    """Minimal system shape for snapshot_system: just an engine."""

    def __init__(self, engine):
        self.engine = engine


class TestCheckpointRoundTrip:
    """Engine edge cases across a snapshot/restore round trip:
    quiescence-mode flips (the mode must never leak into or out of a
    checkpoint) and idle_until cells."""

    def _round_trip(self, engine, tmp_path):
        from repro.sim.checkpoint import restore_system, snapshot_system
        path = tmp_path / "engine.ckpt"
        snapshot_system(_EngineBox(engine), str(path))
        _meta, box = restore_system(str(path))
        return box.engine

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

    def test_env_var_controls_restored_mode(self, tmp_path):
        # The *restoring* process decides the mode: forced_quiescence
        # off there wins over a snapshot taken with it on.
        engine = Engine(quiescence=True)
        engine.register(Sleeper(10))
        engine.run(5)
        with forced_quiescence(False):
            restored = self._round_trip(engine, tmp_path)
        assert restored.quiescence is False
        with forced_quiescence(True):
            restored = self._round_trip(engine, tmp_path)
        assert restored.quiescence is True
