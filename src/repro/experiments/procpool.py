"""Fork-once worker slots: timeout, bounded retry, exact attribution.

``multiprocessing.Pool.map`` loses the in-flight task of a worker that
dies and then waits forever.  :class:`SlotPool` keeps one task per slot
in flight instead, so the parent always knows which point an outcome
belongs to.  A slot's process is forked on first use and then runs task
after task sent over its pipe, at warm-process speed:

* a task that returns sends its result back and the slot reports
  ``done``; the worker waits for the slot's next task;
* a task that raises (or returns what cannot be pickled) sends the
  formatted error back: a failed attempt with the real traceback;
* a task whose process dies without a word (SIGKILL, OOM, segfault) or
  overruns its per-task timeout (the parent kills it) is a failed
  attempt naming the signal/exit code.

A worker that failed an attempt is retired and the slot's next task
gets a fresh fork; an idle worker found dead costs no attempt, and a
task that cannot be pickled fails at once.  Failed attempts retry with
exponential backoff up to ``retries`` times (default 1); a point that
exhausts them is reported ``failed`` with its last error — callers
surface those loudly, never as a hang or a silent gap.

No worker outlives the parent: right after the fork it closes every
parent-side pipe end it inherited, its own slot's included, so a dead
parent reads as EOF and the worker exits.  :meth:`SlotPool.close` stops
idle workers with a stop message and kills busy ones; workers are
daemonic, so interpreter exit reaps them too.

The pool is event-loop-free: callers drive it with :meth:`SlotPool.step`
(reap outcomes, fill free slots, emit events) and :meth:`SlotPool.wait`
(block on the busy workers' pipes and sentinels) — ``run_sweep``
synchronously via :func:`run_points`, the serve scheduler from its
dispatch thread.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
import traceback
from multiprocessing.connection import wait as _wait_connections
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

# (kind, key, ...) event tuples emitted by SlotPool.step:
#   ("done",   key, result)
#   ("retry",  key, attempt, error)    -- attempt just failed, will rerun
#   ("failed", key, error)             -- attempts exhausted, giving up
Event = Tuple[Any, ...]

DEFAULT_RETRIES = 1
DEFAULT_BACKOFF = 0.5

# The parent's ends of every live worker's pipes, across pools: a newly
# forked worker closes them all (see the module docstring), so only the
# parent can write its tasks and only the parent reads its results.
_PARENT_ENDS: Set[Any] = set()

_STOP = b""      # an empty task message: the worker exits


def _slot_main(worker: Callable[[Any], Any], tasks, results) -> None:
    """Worker-process entry: run tasks until stopped, orphaned or one
    fails; ship every outcome back."""
    for end in list(_PARENT_ENDS):
        end.close()
    while True:
        try:
            data = tasks.recv_bytes()
        except EOFError:
            return               # the parent is gone
        if data == _STOP:
            return
        try:
            results.send(("ok", worker(pickle.loads(data))))
        except BaseException as exc:
            results.send(("error", f"{type(exc).__name__}: {exc}",
                          traceback.format_exc()))
            return


class _Task:
    __slots__ = ("key", "item", "attempts", "not_before")

    def __init__(self, key: Any, item: Any) -> None:
        self.key = key
        self.item = item
        self.attempts = 0
        self.not_before = 0.0


class _Slot:
    """One worker process and the parent's ends of its pipes; ``task``
    is the one in flight (None: idle)."""

    __slots__ = ("process", "tasks", "results", "task", "deadline")

    def __init__(self, process, tasks, results) -> None:
        self.process = process
        self.tasks = tasks
        self.results = results
        self.task: Optional[_Task] = None
        self.deadline: Optional[float] = None

    def retire(self, kill: bool = False) -> None:
        if kill and self.process.is_alive():
            self.process.kill()
        self.process.join()
        for end in (self.tasks, self.results):
            _PARENT_ENDS.discard(end)
            end.close()


class SlotPool:
    """A bounded set of fork-once worker slots, one task in flight each.

    ``worker`` must be callable in a forked child (module-level for
    portability) and every task item must pickle; ``timeout`` is the
    per-attempt wall-clock budget in seconds (None: unbounded);
    ``precheck``, when given, is consulted immediately before a task
    would occupy a slot — a non-None return becomes the task's result
    without handing anything to a worker (the serve scheduler uses this
    to skip points another host already computed).
    """

    def __init__(self, worker: Callable[[Any], Any], jobs: int,
                 retries: int = DEFAULT_RETRIES,
                 timeout: Optional[float] = None,
                 backoff: float = DEFAULT_BACKOFF,
                 precheck: Optional[Callable[[Any], Optional[Any]]] = None,
                 ) -> None:
        self.worker = worker
        self.jobs = max(1, jobs)
        self.retries = max(0, retries)
        self.timeout = timeout
        self.backoff = backoff
        self.precheck = precheck
        self._queue: List[_Task] = []
        self._slots: List[_Slot] = []      # live workers, busy or idle
        self._pending = 0
        # Attempts handed to a worker (0 when the precheck or the cache
        # answered) — the "did any simulation work happen" probe.
        self.spawned = 0
        # Worker processes started: one per slot until a worker retires.
        self.forked = 0

    # ------------------------------------------------------------------
    # Interface
    # ------------------------------------------------------------------

    def submit(self, key: Any, item: Any) -> None:
        self._queue.append(_Task(key, item))
        self._pending += 1

    def pending(self) -> int:
        """Tasks not yet resolved (queued, backing off, or running)."""
        return self._pending

    def step(self) -> List[Event]:
        """Reap finished/overrun tasks, start queued ones, emit events."""
        events: List[Event] = []
        now = time.monotonic()
        self._reap(now, events)
        self._fill(now, events)
        return events

    def wait(self, timeout: float = 0.2) -> None:
        """Block until a busy worker reports or exits, the earliest
        retry/timeout deadline arrives, or *timeout* elapses."""
        deadline = time.monotonic() + timeout
        busy = self._busy()
        for slot in busy:
            if slot.deadline is not None and slot.deadline < deadline:
                deadline = slot.deadline
        for task in self._queue:
            if task.not_before and task.not_before < deadline:
                deadline = task.not_before
        remaining = deadline - time.monotonic()
        waitables = [end for slot in busy
                     for end in (slot.results, slot.process.sentinel)]
        if waitables:
            _wait_connections(waitables, timeout=max(0.0, remaining))
        elif remaining > 0:
            time.sleep(min(remaining, timeout))

    def close(self) -> None:
        """Stop idle workers, kill busy ones, and drop the queue."""
        for slot in self._slots:
            if slot.task is None:
                try:
                    slot.tasks.send_bytes(_STOP)
                except OSError:
                    pass         # already gone
        for slot in self._slots:
            slot.retire(kill=slot.task is not None)
        self._slots = []
        self._queue = []
        self._pending = 0

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _busy(self) -> List[_Slot]:
        return [slot for slot in self._slots if slot.task is not None]

    def _fill(self, now: float, events: List[Event]) -> None:
        if not self._queue:
            return
        held: List[_Task] = []
        busy = len(self._busy())
        while self._queue and busy < self.jobs:
            task = self._queue.pop(0)
            if task.not_before > now:
                held.append(task)
                continue
            if self.precheck is not None:
                result = self.precheck(task.key)
                if result is not None:
                    self._pending -= 1
                    events.append(("done", task.key, result))
                    continue
            try:
                data = pickle.dumps(task.item, pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                self._pending -= 1
                events.append(("failed", task.key, f"task cannot be "
                               f"pickled: {type(exc).__name__}: {exc}"))
                continue
            self._hand_out(task, data, now)
            busy += 1
        self._queue[0:0] = held

    def _hand_out(self, task: _Task, data: bytes, now: float) -> None:
        slot = next((slot for slot in self._slots if slot.task is None),
                    None)
        if slot is not None and not slot.process.is_alive():
            # Died while idle: not this task's attempt.
            slot.retire()
            self._slots.remove(slot)
            slot = None
        if slot is None:
            slot = self._fork()
        self.spawned += 1
        slot.task = task
        slot.deadline = None if self.timeout is None else now + self.timeout
        try:
            slot.tasks.send_bytes(data)
        except OSError:
            pass                 # died since the check: reaped as a death

    def _fork(self) -> _Slot:
        task_reader, task_writer = multiprocessing.Pipe(duplex=False)
        result_reader, result_writer = multiprocessing.Pipe(duplex=False)
        _PARENT_ENDS.update((task_writer, result_reader))
        process = multiprocessing.Process(
            target=_slot_main, args=(self.worker, task_reader, result_writer),
            daemon=True)
        process.start()
        # Close the parent's copies of the worker's ends: once the worker
        # dies, its result pipe must read EOF instead of blocking forever.
        task_reader.close()
        result_writer.close()
        self.forked += 1
        slot = _Slot(process, task_writer, result_reader)
        self._slots.append(slot)
        return slot

    def _reap(self, now: float, events: List[Event]) -> None:
        for slot in self._busy():
            try:
                outcome = slot.results.recv() if slot.results.poll() else None
            except (EOFError, OSError):
                outcome = ("died",)      # died, possibly mid-send
            if outcome is None:
                if slot.process.is_alive():
                    if slot.deadline is None or now < slot.deadline:
                        continue
                    outcome = ("timeout",)
                else:
                    outcome = ("died",)
            task, slot.task, slot.deadline = slot.task, None, None
            if outcome[0] == "ok":
                self._pending -= 1
                events.append(("done", task.key, outcome[1]))
                continue
            slot.retire(kill=outcome[0] == "timeout")
            self._slots.remove(slot)
            self._fail(task, outcome, slot.process.exitcode, events)

    def _fail(self, task: _Task, outcome: Tuple, code: Optional[int],
              events: List[Event]) -> None:
        if outcome[0] == "timeout":
            error = (f"timed out after {self.timeout:.1f}s "
                     f"(attempt {task.attempts + 1})")
        elif outcome[0] == "error":
            error = outcome[1]
        else:
            died = (f"killed by signal {-code}" if code is not None
                    and code < 0 else f"exit code {code}")
            error = (f"worker process died without reporting a result "
                     f"({died}, attempt {task.attempts + 1})")
        task.attempts += 1
        if task.attempts > self.retries:
            self._pending -= 1
            events.append(("failed", task.key, error))
            return
        task.not_before = time.monotonic() \
            + self.backoff * (2 ** (task.attempts - 1))
        events.append(("retry", task.key, task.attempts, error))
        self._queue.append(task)


def run_points(items: List[Tuple[Any, Any]],
               worker: Callable[[Any], Any], jobs: int,
               retries: int = DEFAULT_RETRIES,
               timeout: Optional[float] = None,
               backoff: float = DEFAULT_BACKOFF,
               on_event: Optional[Callable[[Event], None]] = None,
               ) -> Tuple[Dict[Any, Any], Dict[Any, str]]:
    """Drive a :class:`SlotPool` over *items* (``(key, payload)`` pairs)
    to completion; returns ``(results, failures)`` keyed like *items*.

    The synchronous front door used by ``run_sweep``; *on_event* sees
    every pool event (the CLI prints retries through it).
    """
    pool = SlotPool(worker=worker, jobs=jobs, retries=retries,
                    timeout=timeout, backoff=backoff)
    for key, item in items:
        pool.submit(key, item)
    results: Dict[Any, Any] = {}
    failures: Dict[Any, str] = {}
    try:
        while pool.pending():
            for event in pool.step():
                if on_event is not None:
                    on_event(event)
                if event[0] == "done":
                    results[event[1]] = event[2]
                elif event[0] == "failed":
                    failures[event[1]] = event[2]
            if pool.pending():
                pool.wait()
    finally:
        pool.close()
    return results, failures
