"""The hardened sweep execution path: fork-once worker slots with
timeout, bounded retry, and loud permanent failure.

The contract under test: a worker that dies mid-point — crash, SIGKILL,
timeout — never loses the point.  It retries up to the bound, and a
point that keeps failing surfaces as a :class:`SweepPointError` listing
every failed fingerprint, never as a hang or a silent gap in the
results.  A slot's worker is forked once and runs point after point
until one fails; it never outlives the process that owns the pool."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.config import ChipConfig
from repro.experiments import (ResultCache, SweepPointError, benchmark_spec,
                               run_sweep)
from repro.experiments.procpool import SlotPool, run_points
from repro.experiments.sweep import _pool_worker, run_plan

KNOBS = dict(ops_per_core=8, workload_scale=0.02, think_scale=10.0)


def tiny_spec(**overrides):
    params = dict(benchmark="fft", protocol="scorpio",
                  config=ChipConfig.variant(3, 3), seed=0, **KNOBS)
    params.update(overrides)
    return benchmark_spec(**params)


# Workers must be module-level (forked children call them).

def _double(item):
    return item * 2


def _crash_on_odd(item):
    if item % 2:
        raise ValueError(f"odd item {item}")
    return item


def _sigkill_self(item):
    os.kill(os.getpid(), signal.SIGKILL)


def _sigkill_once(item):
    flag, value = item
    if not os.path.exists(flag):
        open(flag, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return value * 10


def _sleep_forever(item):
    time.sleep(300)


def _pid(item):
    return os.getpid()


def _pid_unless(item):
    """The worker's pid; raises, sleeps or dies on request."""
    if item == "raise":
        raise ValueError(f"raised in pid {os.getpid()}")
    if item == "sleep":
        time.sleep(300)
    if isinstance(item, tuple) and not os.path.exists(item[0]):
        open(item[0], "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return os.getpid()


def _pid_and_payload(item):
    return os.getpid(), json.dumps(_pool_worker(item))


def drive(pool, items):
    """Submit *items* to *pool* and step it until every one resolved."""
    for key, item in items:
        pool.submit(key, item)
    events = []
    while pool.pending():
        events.extend(pool.step())
        pool.wait(0.05)
    return events


def gone(pid):
    """No such process, or a zombie nobody has reaped yet."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def wait_gone(pids, seconds=5.0):
    deadline = time.monotonic() + seconds
    while not all(gone(pid) for pid in pids) \
            and time.monotonic() < deadline:
        time.sleep(0.05)
    return [pid for pid in pids if not gone(pid)]


class TestRunPoints:
    def test_results_keyed_like_items(self):
        results, failures = run_points(
            [(k, k) for k in range(5)], _double, jobs=3)
        assert failures == {}
        assert results == {k: k * 2 for k in range(5)}

    def test_exception_carries_message_and_retries(self):
        events = []
        results, failures = run_points(
            [(0, 0), (1, 1)], _crash_on_odd, jobs=2, retries=1,
            backoff=0.01, on_event=events.append)
        assert results == {0: 0}
        assert list(failures) == [1]
        assert "ValueError: odd item 1" in failures[1]
        # One retry happened before the permanent failure.
        assert [e[0] for e in events if e[1] == 1] == ["retry", "failed"]

    def test_zero_retries_fails_immediately(self):
        events = []
        _results, failures = run_points(
            [(1, 1)], _crash_on_odd, jobs=1, retries=0,
            on_event=events.append)
        assert list(failures) == [1]
        assert [e[0] for e in events] == ["failed"]

    def test_sigkill_is_attributed_not_hung(self):
        results, failures = run_points(
            [("victim", 0)], _sigkill_self, jobs=1, retries=1,
            backoff=0.01)
        assert results == {}
        assert "killed by signal 9" in failures["victim"]

    def test_sigkill_once_retries_to_success(self, tmp_path):
        flag = str(tmp_path / "first-attempt")
        events = []
        results, failures = run_points(
            [("p", (flag, 7))], _sigkill_once, jobs=1, retries=1,
            backoff=0.01, on_event=events.append)
        assert failures == {}
        assert results == {"p": 70}
        assert events[0][0] == "retry"

    def test_timeout_kills_and_reports(self):
        _results, failures = run_points(
            [("slow", 0)], _sleep_forever, jobs=1, retries=0,
            timeout=0.3)
        assert "timed out" in failures["slow"]


class TestSlotPool:
    def test_spawn_counter_counts_attempts(self, tmp_path):
        flag = str(tmp_path / "flag")
        pool = SlotPool(_sigkill_once, jobs=1, retries=1, backoff=0.01)
        pool.submit("p", (flag, 1))
        while pool.pending():
            pool.step()
            pool.wait(0.05)
        pool.close()
        assert pool.spawned == 2      # the killed attempt and the retry

    def test_precheck_short_circuits_without_spawning(self):
        pool = SlotPool(_double, jobs=2, precheck=lambda key: key * 100)
        pool.submit(3, 3)
        events = []
        while pool.pending():
            events.extend(pool.step())
            pool.wait(0.05)
        pool.close()
        assert events == [("done", 3, 300)]
        assert pool.spawned == 0


needs_proc = pytest.mark.skipif(not os.path.isdir("/proc"),
                                reason="reads process state from /proc")


class TestForkOnce:
    def test_one_fork_per_slot(self):
        results, failures = run_points(
            [(k, k) for k in range(6)], _pid, jobs=1)
        assert failures == {} and len(set(results.values())) == 1
        pool = SlotPool(_pid, jobs=2)
        try:
            events = drive(pool, [(k, k) for k in range(10)])
        finally:
            pool.close()
        assert [kind for kind, *_ in events] == ["done"] * 10
        assert len({event[2] for event in events}) <= 2
        assert pool.forked == 2
        assert pool.spawned == 10

    def test_a_worker_that_raises_is_retired(self):
        pool = SlotPool(_pid_unless, jobs=1, retries=0)
        try:
            events = drive(pool, [("a", "a"), ("r", "raise"), ("b", "b")])
        finally:
            pool.close()
        (_, _, first), (_, _, error), (_, _, second) = events
        assert [event[:2] for event in events] \
            == [("done", "a"), ("failed", "r"), ("done", "b")]
        assert f"raised in pid {first}" in error
        assert second != first
        assert pool.forked == 2

    def test_sigkill_mid_third_task_is_that_task_alone(self, tmp_path):
        flag = str(tmp_path / "killed-once")
        items = [(0, 0), (1, 1), (2, (flag,)), (3, 3)]
        events = []
        results, failures = run_points(items, _pid_unless, jobs=1,
                                       retries=1, backoff=0.01,
                                       on_event=events.append)
        assert failures == {}
        retries = [event for event in events if event[0] == "retry"]
        assert [event[1] for event in retries] == [2]
        assert "killed by signal 9" in retries[0][3]
        assert results[0] == results[1]
        assert results[2] == results[3] != results[0]

    def test_a_timeout_retires_the_worker(self):
        pool = SlotPool(_pid_unless, jobs=1, retries=0, timeout=1.0)
        try:
            events = drive(pool, [("a", "a"), ("s", "sleep"), ("b", "b")])
        finally:
            pool.close()
        assert [event[:2] for event in events] \
            == [("done", "a"), ("failed", "s"), ("done", "b")]
        assert "timed out" in events[1][2]
        assert events[2][2] != events[0][2]
        assert pool.forked == 2

    @needs_proc
    def test_an_idle_worker_found_dead_costs_no_attempt(self):
        pool = SlotPool(_pid, jobs=1, retries=0)
        try:
            [(_, _, first)] = drive(pool, [("a", "a")])
            os.kill(first, signal.SIGKILL)
            assert wait_gone([first]) == []
            events = drive(pool, [("b", "b")])
        finally:
            pool.close()
        assert len(events) == 1 and events[0][:2] == ("done", "b")
        assert events[0][2] != first
        assert pool.spawned == 2 and pool.forked == 2

    def test_close_stops_idle_workers(self):
        pool = SlotPool(_pid, jobs=2)
        drive(pool, [(k, k) for k in range(4)])
        start = time.monotonic()
        pool.close()
        assert time.monotonic() - start < 5.0
        assert multiprocessing.active_children() == []

    @needs_proc
    def test_workers_exit_when_the_parent_is_killed(self):
        """A SIGKILLed parent runs no cleanup: its idle workers must see
        EOF on their task pipes and exit by themselves."""
        import repro
        script = (
            "import os, signal\n"
            "from repro.experiments.procpool import SlotPool\n"
            "pool = SlotPool(lambda item: os.getpid(), jobs=2)\n"
            "for key in range(4):\n"
            "    pool.submit(key, key)\n"
            "pids = set()\n"
            "while pool.pending():\n"
            "    pids.update(event[2] for event in pool.step())\n"
            "    pool.wait(0.05)\n"
            "print(*sorted(pids), flush=True)\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n")
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        # Read one line, not to EOF: a surviving worker holds the pipe.
        with subprocess.Popen([sys.executable, "-c", script], env=env,
                              stdout=subprocess.PIPE, text=True) as child:
            pids = [int(pid) for pid in child.stdout.readline().split()]
            assert child.wait(timeout=60) == -signal.SIGKILL
        assert 1 <= len(pids) <= 2
        survivors = wait_gone(pids)
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        assert survivors == []

    def test_a_reused_worker_gives_fresh_bytes(self):
        """A point run on a worker that already ran another point is
        byte-identical to a fresh run: neither the packet-id counter nor
        any module memo carries over into a result."""
        first = tiny_spec(protocol="lpd", seed=3,
                          config=ChipConfig.variant(4, 4))
        second = tiny_spec(seed=1)
        results, failures = run_points(
            [(key, (spec, spec.fingerprint()))
             for key, spec in (("first", first), ("second", second))],
            _pid_and_payload, jobs=1)
        assert failures == {}
        assert results["first"][0] == results["second"][0]
        [fresh] = run_sweep([second], jobs=1, cache=False)
        assert results["second"][1] == json.dumps(fresh.payload())

    def test_an_unpicklable_task_fails_alone(self):
        pool = SlotPool(_pid, jobs=1)
        try:
            events = drive(pool, [("bad", lambda: None), ("good", 1)])
        finally:
            pool.close()
        assert [event[:2] for event in events] \
            == [("failed", "bad"), ("done", "good")]
        assert "cannot be pickled" in events[0][2]
        assert pool.spawned == 1


class TestRunSweepHardening:
    def test_parallel_identical_to_serial(self):
        specs = [tiny_spec(protocol=p) for p in ("scorpio", "lpd")]
        parallel = run_sweep(specs, jobs=2, cache=False)
        serial = run_sweep(specs, jobs=1, cache=False)
        assert [r.payload() for r in parallel] \
            == [r.payload() for r in serial]

    def test_sigkilled_worker_loses_no_points(self, tmp_path, monkeypatch,
                                              capsys):
        """SIGKILL one worker mid-sweep: the sweep retries the point and
        the results are byte-identical to an undisturbed run."""
        import repro.experiments.sweep as sweep_mod
        specs = [tiny_spec(seed=s) for s in (0, 1)]
        undisturbed = run_sweep(specs, jobs=2, cache=False)

        flag = tmp_path / "killed-once"
        real_worker = sweep_mod._pool_worker

        def killing_worker(item):
            spec, _fp = item
            if spec.seed_value() == 1 and not flag.exists():
                flag.touch()
                os.kill(os.getpid(), signal.SIGKILL)
            return real_worker(item)

        monkeypatch.setattr(sweep_mod, "_pool_worker", killing_worker)
        disturbed = run_sweep(specs, jobs=2, cache=False)
        assert [r.payload() for r in disturbed] \
            == [r.payload() for r in undisturbed]
        assert "retrying" in capsys.readouterr().err

    def test_permanent_failure_is_loud_and_lists_fingerprints(
            self, monkeypatch, capsys):
        import repro.experiments.sweep as sweep_mod
        specs = [tiny_spec(seed=s) for s in (0, 1)]
        real_worker = sweep_mod._pool_worker

        def failing_worker(item):
            spec, _fp = item
            if spec.seed_value() == 1:
                raise RuntimeError("simulated point crash")
            return real_worker(item)

        monkeypatch.setattr(sweep_mod, "_pool_worker", failing_worker)
        with pytest.raises(SweepPointError) as excinfo:
            run_sweep(specs, jobs=2, cache=False, retries=1)
        bad_fp = specs[1].fingerprint()
        assert bad_fp in excinfo.value.failures
        assert "simulated point crash" in excinfo.value.failures[bad_fp]
        assert bad_fp in capsys.readouterr().err

    def test_a_failed_point_keeps_the_computed_ones(self, tmp_path,
                                                    monkeypatch):
        """Every point that completed is in the cache when another one
        fails for good, so the next call simulates only the failed
        point."""
        import repro.experiments.sweep as sweep_mod
        specs = [tiny_spec(seed=s) for s in (0, 1, 2)]
        real_worker = sweep_mod._pool_worker

        def failing_worker(item):
            spec, _fp = item
            if spec.seed_value() == 1:
                raise RuntimeError("simulated point crash")
            return real_worker(item)

        monkeypatch.setattr(sweep_mod, "_pool_worker", failing_worker)
        with pytest.raises(SweepPointError):
            run_plan(specs, jobs=2, cache=str(tmp_path), retries=0)
        assert ResultCache(tmp_path).entries() == 2
        monkeypatch.setattr(sweep_mod, "_pool_worker", real_worker)
        plan = run_plan(specs, jobs=2, cache=str(tmp_path))
        assert plan.cache_stats == {"hits": 2, "misses": 1}
