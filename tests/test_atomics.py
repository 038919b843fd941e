"""Atomic read-modify-write (lock/barrier) tests.

The chip's regression suite exercised lock and barrier instructions
(Sec. 4.3).  Here, N cores concurrently atomic-increment one lock line;
exclusivity (M state held across the RMW) plus the global order must
yield N *distinct* versions 1..N — the definition of an atomic
fetch-and-increment.
"""

import pytest

from repro.coherence.mosi import State, request_for
from repro.core.config import ChipConfig
from repro.cpu.trace import Trace, TraceOp
from repro.systems.scorpio import ScorpioSystem
from repro.verification.litmus import LitmusCore

LOCK = 0x6000_0000


class TestRequestMapping:
    def test_atomic_needs_exclusivity(self):
        from repro.coherence.messages import ReqKind
        assert request_for("A", State.I) is ReqKind.GETX
        assert request_for("A", State.S) is ReqKind.GETX
        assert request_for("A", State.M) is None

    def test_trace_accepts_atomic(self):
        op = TraceOp("A", LOCK, 1)
        assert op.op == "A"

    def test_trace_rejects_junk(self):
        with pytest.raises(ValueError):
            TraceOp("X", LOCK)


class _AtomicCore(LitmusCore):
    pass


def run_barrier(n_threads, increments_per_core=1, first_node=0):
    """*n_threads* cores from *first_node* on (mod 9) increment LOCK."""
    config = ChipConfig.variant(3, 3)
    system = ScorpioSystem(config, traces=[Trace([]) for _ in range(9)])
    cores = []
    for node in ((first_node + i) % 9 for i in range(n_threads)):
        thread = [("A", "lock")] * increments_per_core
        core = _AtomicCore(node, system.l2s[node], thread)
        system.engine.register(core)
        cores.append(core)
    system.engine.run(100_000, until=lambda: all(c.finished for c in cores))
    assert all(c.finished for c in cores)
    versions = [obs.version for core in cores for obs in core.observations]
    return versions


class TestAtomicIncrement:
    # The system draws no random numbers, so each case moves the six
    # contending threads to other nodes instead.
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_concurrent_increments_are_atomic(self, seed):
        versions = run_barrier(6, first_node=3 * seed)
        assert sorted(versions) == list(range(1, 7)), (
            f"lost or duplicated increment: {versions}")

    def test_repeated_increments(self):
        versions = run_barrier(4, increments_per_core=3)
        assert sorted(versions) == list(range(1, 13))

    def test_barrier_count_equals_participants(self):
        # A sense-reversing barrier's arrival count must equal N.
        versions = run_barrier(9)
        assert max(versions) == 9
