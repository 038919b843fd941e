"""Memory-consistency litmus tests over the live SCORPIO system.

The chip targets **sequential consistency** (Table 2) and was verified
with regression suites exercising loads/stores and inter-cache coherency
(Sec. 4.3).  This module is the simulator's analogue: tiny concurrent
programs run on real cores/caches/networks, loads observe *versions*
(store counts per line, standing in for data values), and a checker
decides whether the observed outcome is admissible under SC.

A :class:`LitmusProgram` is a list of per-core threads; each thread is a
list of ``("R", var)`` / ``("W", var)`` operations executed in program
order (one at a time — in-order cores).  Writes to a variable are
numbered 1..n in the order they *commit globally*, and a read observes
the number of the last committed write it saw.  The checker enumerates
interleavings of the threads (litmus tests are tiny) and accepts iff some
sequentially consistent interleaving explains every observed value.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Dict, List, Sequence, Tuple

from repro.core.config import ChipConfig
from repro.cpu.trace import Trace
from repro.sim.engine import Clocked

VAR_BASE = 0x5000_0000
VAR_STRIDE = 1 << 16     # distinct lines (and regions) per variable


def var_addr(var: str) -> int:
    """Stable line-aligned address for a named variable."""
    index = sum((ord(c) - ord("a") + 1) * 27 ** i
                for i, c in enumerate(reversed(var)))
    return VAR_BASE + index * VAR_STRIDE


@dataclass
class Observation:
    """One executed operation and what it saw."""

    core: int
    index: int          # program-order position within the thread
    op: str             # 'R' or 'W'
    var: str
    version: int        # store count observed (W: the count it produced)


class LitmusCore(Clocked):
    """In-order core executing one litmus thread, blocking per op."""

    def __init__(self, node: int, l2, thread: Sequence[Tuple[str, str]]):
        self.node = node
        self.l2 = l2
        self.thread = list(thread)
        self._pc = 0
        self._waiting = False
        self.observations: List[Observation] = []
        l2.set_completion_callback(self._on_complete)

    @property
    def finished(self) -> bool:
        return self._pc >= len(self.thread) and not self._waiting

    def step(self, cycle: int) -> None:
        if self._waiting or self._pc >= len(self.thread):
            # Blocked on an in-flight op (the completion callback wakes
            # us) or out of program: either way nothing to issue.
            self.idle_until(None)
            return
        op, var = self.thread[self._pc]
        if self.l2.core_request(op, var_addr(var), cycle, token=self._pc):
            self._waiting = True
            self.idle_until(None)

    def _on_complete(self, token, cycle, version=0) -> None:
        op, var = self.thread[token]
        self.observations.append(
            Observation(self.node, token, op, var, version))
        self._pc = token + 1
        self._waiting = False
        self.wake()


@dataclass
class LitmusProgram:
    """A named litmus test: threads plus the SC verdicts to check."""

    name: str
    threads: List[List[Tuple[str, str]]]
    description: str = ""


def build_litmus_system(program: LitmusProgram, config: ChipConfig,
                        protocol: str = "scorpio"):
    """Construct the (unrun) system for *program* on the chip *config*
    with one :class:`LitmusCore` per thread registered and stored on the
    system — the checkpointable form of a litmus run.

    The cores land in ``system.cores`` (so the run stops when every
    thread retires) and, in program order, in
    ``system.litmus_cores`` (so observations can be collected after a
    restore in a fresh process)."""
    from repro.core.api import build_system
    if len(program.threads) > config.n_cores:
        raise ValueError("more threads than nodes")
    system = build_system(
        protocol, [Trace([]) for _ in range(config.n_cores)], config)
    cores = []
    for node, thread in enumerate(program.threads):
        core = LitmusCore(node, system.l2s[node], thread)
        system.engine.register(core)
        cores.append(core)
        system.cores[node] = core
    system.litmus_cores = cores
    return system


def litmus_observations(system) -> List[Observation]:
    """Collect per-thread observations (program order) from a system
    built by :func:`build_litmus_system`."""
    observations: List[Observation] = []
    for core in system.litmus_cores:
        observations.extend(core.observations)
    return observations


def recorded_observations(result) -> List[Observation]:
    """The observations a ``litmus`` builder result row carries (fresh
    or recalled from the cache)."""
    return [Observation(*row) for row in result.extra["observations"]]


def run_litmus(program: LitmusProgram, width: int = 3, height: int = 3,
               max_cycles: int = 100_000,
               seed: int = 0, protocol: str = "scorpio"
               ) -> List[Observation]:
    """Execute *program* on a live system — ``execute_point`` of its
    :func:`litmus_spec`, uncached; returns observations."""
    from repro.experiments.sweep import execute_point
    return recorded_observations(execute_point(litmus_spec(
        program, protocol=protocol, seed=seed, width=width, height=height,
        max_cycles=max_cycles)))


# ---------------------------------------------------------------------------
# The SC checker
# ---------------------------------------------------------------------------

def _interleavings(threads: List[List[int]]):
    """All interleavings of per-thread op-index sequences (tiny inputs)."""
    tagged = []
    for tid, ops in enumerate(threads):
        tagged.append([(tid, idx) for idx in ops])
    slots = []
    for tid, ops in enumerate(tagged):
        slots.extend([tid] * len(ops))
    seen = set()
    for order in set(permutations(slots)):
        if order in seen:
            continue
        seen.add(order)
        cursors = [0] * len(tagged)
        out = []
        for tid in order:
            out.append(tagged[tid][cursors[tid]])
            cursors[tid] += 1
        yield out


def is_sequentially_consistent(program: LitmusProgram,
                               observations: List[Observation]) -> bool:
    """True iff some total order of all ops, consistent with each
    thread's program order, reproduces every observed version."""
    obs = {(o.core, o.index): o for o in observations}
    threads = [list(range(len(t))) for t in program.threads]
    for interleaving in _interleavings(threads):
        counts: Dict[str, int] = {}
        ok = True
        for tid, idx in interleaving:
            op, var = program.threads[tid][idx]
            if op == "W":
                counts[var] = counts.get(var, 0) + 1
                expected = counts[var]
            else:
                expected = counts.get(var, 0)
            if obs[(tid, idx)].version != expected:
                ok = False
                break
        if ok:
            return True
    return False


# ---------------------------------------------------------------------------
# Canonical litmus programs
# ---------------------------------------------------------------------------

MESSAGE_PASSING = LitmusProgram(
    name="message-passing",
    threads=[
        [("W", "x"), ("W", "y")],          # producer: data then flag
        [("R", "y"), ("R", "x")],          # consumer: flag then data
    ],
    description="if the consumer sees the flag, it must see the data",
)

STORE_BUFFERING = LitmusProgram(
    name="store-buffering",
    threads=[
        [("W", "x"), ("R", "y")],
        [("W", "y"), ("R", "x")],
    ],
    description="SC forbids both reads returning 0",
)

LOAD_BUFFERING = LitmusProgram(
    name="load-buffering",
    threads=[
        [("R", "x"), ("W", "y")],
        [("R", "y"), ("W", "x")],
    ],
    description="SC forbids both loads seeing the other thread's store",
)

COHERENCE_ORDER = LitmusProgram(
    name="coherence-order",
    threads=[
        [("W", "x"), ("W", "x")],
        [("R", "x"), ("R", "x")],
    ],
    description="reads of one location never go backwards",
)

IRIW = LitmusProgram(
    name="iriw",
    threads=[
        [("W", "x")],
        [("W", "y")],
        [("R", "x"), ("R", "y")],
        [("R", "y"), ("R", "x")],
    ],
    description="independent readers must agree on the write order",
)

ALL_LITMUS = [MESSAGE_PASSING, STORE_BUFFERING, LOAD_BUFFERING,
              COHERENCE_ORDER, IRIW]


def litmus_spec(program: LitmusProgram, protocol: str = "scorpio",
                seed: int = 0, width: int = 3, height: int = 3,
                max_cycles: int = 100_000):
    """A sweepable :class:`~repro.experiments.builders.SystemSpec` for one
    (program, protocol, seed) litmus execution."""
    from repro.experiments.builders import SystemSpec
    return SystemSpec(
        builder="litmus",
        config=ChipConfig.variant(width, height),
        params={"name": program.name,
                "threads": [[list(op) for op in thread]
                            for thread in program.threads],
                "protocol": protocol, "seed": seed},
        workload={"kind": "idle"},
        max_cycles=max_cycles,
        label=f"{program.name}/{protocol}/s{seed}")
