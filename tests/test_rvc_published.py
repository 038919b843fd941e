"""The reserved VC's inline answer against its definition.

A router and an :class:`~repro.noc.vc.OutPort` decide whether a GO-REQ
may take the reserved VC of a port from the far NIC's published state —
``esid == sid and consumed_counts[sid] == seq`` — without calling it.
:meth:`OrderedNetworkInterface.rvc_eligible
<repro.nic.controller.OrderedNetworkInterface.rvc_eligible>` is the one
written definition.  These soaks run SCORPIO and the multi-mesh chip,
3x3 and 4x4, under both kernels, with a one-deep tracker queue (so stop
windows occur) and two GO-REQ VCs (so the reserved VC is asked often),
and check at every live question — every (slot, port) that the scan,
``OutPort.select`` or a reserved-VC admission reads the answer for —
that:

* the inline answer equals ``rvc_eligible(sid, seq)``;
* the tracker's expansion is empty only when its queue is (it decodes
  a vector as the order moves, never on a read);
* the published ``esid`` is the tracker's current ESID.
"""

import dataclasses

import pytest

from repro.core.config import ChipConfig
from repro.experiments import SystemSpec
from repro.noc.packet import VNet
from repro.noc.router import MASK_PORTS, Router
from repro.noc.vc import OutPort, Unbound
from repro.sim.engine import forced_quiescence

GO_REQ = VNet.GO_REQ


class Questions:
    """Checks every live reserved-VC question; counts the answers."""

    def __init__(self):
        self.answers = {True: 0, False: 0}

    def check(self, out, packet):
        nic = out.far_nic
        assert nic is not Unbound
        tracker = nic.tracker
        assert tracker._expansion or not tracker._queue
        assert nic.esid == tracker.current_esid()
        sid, seq = packet.sid, packet.seq
        inline = nic.esid == sid and nic.consumed_counts[sid] == seq
        assert inline == nic.rvc_eligible(sid, seq)
        self.answers[inline] += 1

    def asked(self, out, packet):
        """Does *out*'s VC selection reach the reserved-VC question?"""
        return (packet.vnet == GO_REQ and packet.sid not in out.sid_count
                and not out.free_mask[GO_REQ] and out.rvc_free)


@pytest.fixture
def questions(monkeypatch):
    spy = Questions()
    real_scan, real_select = Router._scan, OutPort.select
    real_admit = Router._admit_rvc_waiters

    def scan(router, cycle, pending):
        rest = pending
        while rest:
            bit = rest & -rest
            rest ^= bit
            slot = bit.bit_length() - 1
            packet = router._slot_packet[slot]
            if packet is None or router._slot_ready[slot] > cycle:
                continue
            for port in MASK_PORTS[router._slot_outports[slot]]:
                out = router.out[port]
                if router.port_free_at[port] <= cycle \
                        and spy.asked(out, packet):
                    spy.check(out, packet)
        return real_scan(router, cycle, pending)

    def select(out, packet):
        if spy.asked(out, packet):
            spy.check(out, packet)
        return real_select(out, packet)

    def admit(router, port, cause):
        out = router.out[port]
        for slot, packet in enumerate(router._slot_packet):
            if packet is not None and packet.sid == out.far_nic.esid \
                    and out.rvc_wait.get(packet.sid, 0) >> slot & 1 \
                    and router._slot_outports[slot] >> port & 1:
                spy.check(out, packet)
        return real_admit(router, port, cause)

    monkeypatch.setattr(Router, "_scan", scan)
    monkeypatch.setattr(OutPort, "select", select)
    monkeypatch.setattr(Router, "_admit_rvc_waiters", admit)
    return spy


WORKLOAD = {"kind": "benchmark", "name": "fft", "ops_per_core": 10,
            "workload_scale": 0.05, "think_scale": 0.5, "seed": 3}


@pytest.mark.parametrize("quiescence", [True, False],
                         ids=["sleep-wake", "always-tick"])
@pytest.mark.parametrize("size", [3, 4])
@pytest.mark.parametrize("builder", ["scorpio", "multimesh"])
def test_inline_answer_is_rvc_eligible(questions, builder, size,
                                       quiescence):
    config = ChipConfig.variant(size, size, goreq_vcs=2)
    config = dataclasses.replace(config, notification=dataclasses.replace(
        config.notification, tracker_queue_depth=1))
    spec = SystemSpec(builder, config, workload=WORKLOAD)
    with forced_quiescence(quiescence):
        system = spec.build()
        system.run_until_done(spec.max_cycles)
    assert system.all_cores_finished()
    assert system.stats.counter("nic.windows_stopped") > 0
    assert questions.answers[True] > 0 and questions.answers[False] > 0
