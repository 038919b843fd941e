"""Property-based soak tests: random tiny workloads on random small
meshes must always complete, agree on the global order, and preserve the
single-owner invariant.  This is the broadest liveness/safety net in the
suite — any credit leak, deadlock or ordering bug tends to surface here
first."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.trace import Trace, TraceOp
from repro.noc.config import NocConfig
from repro.systems.directory import DirectorySystem
from repro.systems.scorpio import ScorpioSystem

LINE = 32
BASE = 0x4000_0000


def traces_strategy(n_cores, max_ops=6, max_lines=5):
    op = st.tuples(st.sampled_from("RW"), st.integers(0, max_lines - 1),
                   st.integers(1, 30))
    thread = st.lists(op, max_size=max_ops)
    return st.lists(thread, min_size=n_cores, max_size=n_cores)


def build_traces(raw):
    return [Trace([TraceOp(op=o, addr=BASE + line * LINE, think=think)
                   for o, line, think in thread])
            for thread in raw]


class TestScorpioSoak:
    @settings(max_examples=12, deadline=None)
    @given(raw=traces_strategy(9))
    def test_random_workloads_complete_and_agree(self, raw):
        system = ScorpioSystem(traces=build_traces(raw),
                               noc=NocConfig(width=3, height=3))
        logs = {n: [] for n in range(9)}
        for node, nic in enumerate(system.nics):
            nic.add_request_listener(
                (lambda k: (lambda p, sid, c, a:
                            logs[k].append((sid, p.req_id))))(node))
        system.run_until_done(120_000)
        assert system.all_cores_finished(), "SCORPIO soak deadlocked"
        for node in range(1, 9):
            assert logs[node] == logs[0], "global order diverged"
        assert system.single_owner_invariant()
        assert system.mesh.check_sid_invariant()

    @settings(max_examples=6, deadline=None)
    @given(raw=traces_strategy(4))
    def test_tiny_mesh(self, raw, credits_in_flight):
        system = ScorpioSystem(traces=build_traces(raw),
                               noc=NocConfig(width=2, height=2))
        system.run_until_done(120_000)
        assert system.all_cores_finished()
        system.run(500)
        assert system.quiesced()
        assert credits_in_flight(system) == 0


class TestDirectorySoak:
    @settings(max_examples=6, deadline=None)
    @given(raw=traces_strategy(9, max_ops=5))
    def test_lpd_random_workloads_complete(self, raw):
        system = DirectorySystem(scheme="LPD", traces=build_traces(raw),
                                 noc=NocConfig(width=3, height=3))
        system.run_until_done(150_000)
        assert system.all_cores_finished(), "LPD soak deadlocked"

    @settings(max_examples=6, deadline=None)
    @given(raw=traces_strategy(9, max_ops=5))
    def test_ht_random_workloads_complete(self, raw):
        system = DirectorySystem(scheme="HT", traces=build_traces(raw),
                                 noc=NocConfig(width=3, height=3))
        system.run_until_done(150_000)
        assert system.all_cores_finished(), "HT soak deadlocked"
