"""Tests for the notification network and tracker — the heart of
SCORPIO's distributed ordering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc.config import NotificationConfig
from repro.notification.network import NotificationNetwork
from repro.notification.tracker import NotificationTracker
from repro.sim.engine import Engine


def build_network(width=6, height=6, window=13, bits=1):
    engine = Engine()
    config = NotificationConfig(bits_per_core=bits, window=window)
    net = NotificationNetwork(width, height, config, engine)
    return engine, net


def attach_senders(net, senders, received, count=1):
    """Nodes in *senders* inject *count* requests in the next window and
    announce it; every sink records into *received*."""
    for node in range(net.n_nodes):
        net.attach(node,
                   (lambda n: (lambda: net.encode(n, count)
                               if n in senders else 0))(node),
                   (lambda n: (lambda v: received.__setitem__(n, v)))(node))
    for node in sorted(senders):
        net.announce(node)


class TestNotificationNetwork:
    def test_window_below_bound_rejected(self):
        engine = Engine()
        with pytest.raises(ValueError):
            NotificationNetwork(6, 6, NotificationConfig(window=5), engine)

    def test_minimum_window(self):
        assert NotificationConfig.minimum_window(6, 6) == 11
        assert NotificationConfig.minimum_window(10, 10) == 19

    def test_single_source_reaches_all(self):
        engine, net = build_network()
        received = {}
        attach_senders(net, {7}, received)
        engine.run(13)
        assert len(received) == 36
        assert all(v == received[0] for v in received.values())
        assert net.core_count(received[0], 7) == 1
        assert net.core_count(received[0], 8) == 0

    def test_merge_multiple_sources(self):
        engine, net = build_network()
        received = {}
        senders = {3, 17, 35}
        attach_senders(net, senders, received)
        engine.run(13)
        merged = received[0]
        for core in range(36):
            assert net.core_count(merged, core) == (1 if core in senders else 0)

    def test_multi_bit_counts(self):
        engine, net = build_network(bits=2)
        received = {}
        attach_senders(net, {0}, received, count=3)
        engine.run(13)
        assert net.core_count(received[5], 0) == 3

    def test_unannounced_source_is_not_polled(self):
        engine, net = build_network()
        received = {}
        attach_senders(net, set(), received)
        net.sources[7] = lambda: net.encode(7, 1)   # never announces
        engine.run(3 * 13)
        assert received == {}
        assert net.stats.counter("notification.injected") == 0

    def test_encode_rejects_overflow(self):
        _engine, net = build_network(bits=1)
        with pytest.raises(ValueError):
            net.encode(0, 2)

    def test_stop_bit_roundtrip(self):
        _engine, net = build_network()
        vector = net.encode(4, 1, stop=True)
        assert net.stop_asserted(vector)
        assert net.core_count(vector, 4) == 1

    def test_windows_are_independent(self):
        engine, net = build_network()
        log = []
        state = {"sender": None}

        def source_for(node):
            def source():
                return net.encode(node, 1) if node == state["sender"] else 0
            return source

        for node in range(36):
            net.attach(node, source_for(node),
                       (lambda n: (lambda v: log.append((engine.cycle, v))
                                   if n == 0 else None))(node))
        for sender in (5, None, 9):
            state["sender"] = sender
            if sender is not None:
                net.announce(sender)
            engine.run(13)
        # The empty middle window calls no sink; the sender of the first
        # window answers 0 at the second window start and leaves the set.
        assert [cycle for cycle, _v in log] == [12, 38]
        vectors = [v for _c, v in log]
        assert net.core_count(vectors[0], 5) == 1
        assert net.core_count(vectors[1], 9) == 1
        assert net.core_count(vectors[1], 5) == 0

    @settings(max_examples=20, deadline=None)
    @given(width=st.integers(2, 7), height=st.integers(2, 7),
           senders=st.sets(st.integers(0, 48)))
    def test_property_all_nodes_agree(self, width, height, senders):
        n = width * height
        senders = {s % n for s in senders}
        engine = Engine()
        window = NotificationConfig.minimum_window(width, height)
        net = NotificationNetwork(width, height,
                                  NotificationConfig(window=window), engine)
        received = {}
        attach_senders(net, senders, received)
        engine.run(window)
        if not senders:
            assert received == {}
            return
        assert len(received) == n
        assert len(set(received.values())) == 1
        merged = received[0]
        decoded = {c for c in range(n) if net.core_count(merged, c)}
        assert decoded == senders


@pytest.mark.parametrize("quiescence", [True, False],
                         ids=["quiescent", "always-tick"])
class TestStopWindow:
    """The window after a stop-bit window re-enables the NICs the stop
    bit disabled, so it reaches every sink even when it is empty; an
    empty window with no stop before it reaches none."""

    # A 3x3 mesh with one bit per core: node 4's field is bit 4 and the
    # stop bit is bit 9.
    NODE4, STOP = 1 << 4, 1 << 9

    def run_windows(self, quiescence, answers):
        """Node 4 answers ``answers[k]`` at window *k*'s start (it
        announces once, before the first); returns the network and each
        of four windows' sink calls."""
        engine = Engine(quiescence=quiescence)
        net = NotificationNetwork(3, 3, NotificationConfig(window=6), engine)
        assert net.stop_bit == 9
        calls = []
        answers = iter(answers)
        for node in range(9):
            net.attach(node, (lambda: next(answers)) if node == 4 else None,
                       lambda vector, n=node: calls.append((n, vector)))
        net.announce(4)
        windows = []
        for _window in range(4):
            calls.clear()
            engine.run(6)
            windows.append(list(calls))
        return net, windows

    def test_empty_window_after_a_stop_reaches_every_sink(self, quiescence):
        stop = self.NODE4 | self.STOP
        _net, windows = self.run_windows(quiescence, [stop, 0])
        assert windows[0] == [(node, stop) for node in range(9)]
        assert windows[1] == [(node, 0) for node in range(9)]
        assert windows[2] == windows[3] == []

    def test_stop_only_vector_is_delivered(self, quiescence):
        stop = self.STOP
        _net, windows = self.run_windows(quiescence, [stop, stop, 0])
        assert windows[:3] == [[(node, vector) for node in range(9)]
                               for vector in (stop, stop, 0)]
        assert windows[3] == []

    def test_empty_window_without_a_stop_reaches_no_sink(self, quiescence):
        _net, windows = self.run_windows(quiescence, [0])
        assert windows == [[], [], [], []]


class TestNotificationTracker:
    def make(self, n=4, bits=1, depth=4):
        return NotificationTracker(n, bits, depth)

    def encode(self, tracker, counts):
        vector = 0
        for core, count in counts.items():
            vector |= count << (core * tracker.bits_per_core)
        return vector

    def test_esid_sequence_single_window(self):
        tracker = self.make()
        tracker.push(self.encode(tracker, {1: 1, 3: 1}))
        assert tracker.current_esid() == 1
        assert tracker.consume_esid() == 1
        assert tracker.current_esid() == 3
        tracker.consume_esid()
        assert tracker.current_esid() is None

    def test_rotating_priority_advances_per_message(self):
        tracker = self.make()
        tracker.push(self.encode(tracker, {0: 1, 1: 1}))
        tracker.consume_esid()
        tracker.consume_esid()
        # Pointer advanced to 1: next window orders 1 before 0.
        tracker.push(self.encode(tracker, {0: 1, 1: 1}))
        assert tracker.consume_esid() == 1
        assert tracker.consume_esid() == 0

    def test_multibit_expansion(self):
        tracker = self.make(bits=2)
        tracker.push(self.encode(tracker, {2: 3, 0: 1}))
        order = [tracker.consume_esid() for _ in range(4)]
        assert order == [0, 2, 2, 2]

    def test_queue_full_and_overrun(self):
        # The vector being served has left the queue: a depth-2 queue
        # is full with two more waiting behind it.
        tracker = self.make(depth=2)
        tracker.push(self.encode(tracker, {0: 1}))
        assert tracker.current_esid() == 0 and not tracker.queue_full
        tracker.push(self.encode(tracker, {1: 1}))
        assert not tracker.queue_full
        tracker.push(self.encode(tracker, {2: 1}))
        assert tracker.queue_full
        with pytest.raises(RuntimeError):
            tracker.push(self.encode(tracker, {3: 1}))
        tracker.consume_esid()          # decodes the next vector
        assert tracker.current_esid() == 1 and not tracker.queue_full

    def test_consume_without_pending_raises(self):
        tracker = self.make()
        with pytest.raises(RuntimeError):
            tracker.consume_esid()

    def test_outstanding_counts_queue_and_expansion(self):
        # The served vector is decoded into the expansion; the next
        # waits undecoded in the queue.  Draining yields every slot of
        # both, in order.
        tracker = self.make(bits=2)
        tracker.push(self.encode(tracker, {1: 2}))
        tracker.push(self.encode(tracker, {2: 1}))
        assert list(tracker._expansion) == [1, 1]
        assert list(tracker._queue) == [1 << 4]
        order = [tracker.consume_esid()]
        assert list(tracker._expansion) == [1]
        while tracker.current_esid() is not None:
            order.append(tracker.consume_esid())
        assert order == [1, 1, 2]
        assert tracker.consumed == 3
        assert not tracker._queue and not tracker._expansion

    def test_two_trackers_agree(self):
        # The distributed-ordering property: same inputs -> same order.
        a, b = self.make(), self.make()
        windows = [{0: 1, 2: 1}, {1: 1}, {0: 1, 1: 1, 3: 1}]
        orders = [[], []]
        for tracker, out in ((a, orders[0]), (b, orders[1])):
            for counts in windows:
                tracker.push(self.encode(tracker, counts))
            while tracker.current_esid() is not None:
                out.append(tracker.consume_esid())
        assert orders[0] == orders[1]

    @staticmethod
    def reference_order(vectors, n, bits):
        """Plain decode: each vector in turn, cores from a pointer that
        advances once per vector, a core's count as repeated slots."""
        order, pointer = [], 0
        for vector in vectors:
            for offset in range(n):
                core = (pointer + offset) % n
                order += [core] * (vector >> core * bits & (1 << bits) - 1)
            pointer = (pointer + 1) % n
        return order

    @given(n=st.integers(1, 9), bits=st.integers(1, 2),
           depth=st.integers(1, 3), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_property_order_moves_only_on_push_and_consume(
            self, n, bits, depth, data):
        """Any push/consume sequence that respects the stop bit (no push
        into a full queue): the ESID is the head of the expansion, an
        empty expansion means an empty queue, and the consumed SIDs are
        the reference decode of the pushed vectors."""
        tracker = NotificationTracker(n, bits, depth)
        vector = st.integers(0, (1 << n * bits) - 1)
        pushed, consumed = [], []
        for push in data.draw(st.lists(st.booleans(), max_size=40)):
            if push and not tracker.queue_full:
                pushed.append(data.draw(vector))
                tracker.push(pushed[-1])
            elif tracker.current_esid() is not None:
                consumed.append(tracker.consume_esid())
            expansion = tracker._expansion
            assert tracker.current_esid() == (expansion[0] if expansion
                                              else None)
            assert expansion or not tracker._queue
            decoded = len(pushed) - len(tracker._queue)
            assert tracker.pointer == decoded % n
            assert consumed == self.reference_order(
                pushed[:decoded], n, bits)[:len(consumed)]
        while tracker.current_esid() is not None:
            consumed.append(tracker.consume_esid())
        assert consumed == self.reference_order(pushed, n, bits)
        assert tracker.consumed == len(consumed)


class TestObserversLeaveTheTracker:
    """The tracker moves only on a push or a consume; the NIC publishes
    the expected SID as ``esid`` then.  Observers (``idle()``, the
    monitor's ESID check) read ``esid`` and leave the tracker — and so
    ``queue_full``, the stop bit — as they found it."""

    @staticmethod
    def nic_with_a_full_queue():
        from repro.nic.controller import OrderedNetworkInterface
        from repro.noc.config import NocConfig
        nic = OrderedNetworkInterface(
            0, NocConfig(width=3, height=3),
            NotificationConfig(tracker_queue_depth=1))
        nic.receive_merged_notification(1 << 2)   # node 2: one request
        nic.receive_merged_notification(1 << 3)   # node 3: one request
        return nic

    @staticmethod
    def state(tracker):
        return (list(tracker._queue), list(tracker._expansion),
                tracker.pointer, tracker.queue_full)

    def test_idle_does_not_refill(self):
        nic = self.nic_with_a_full_queue()
        before = self.state(nic.tracker)
        assert before == ([8], [2], 1, True)
        assert not nic.idle()
        assert self.state(nic.tracker) == before

    def test_monitor_esid_check_does_not_refill(self):
        from types import SimpleNamespace
        from repro.verification.monitor import SystemMonitor
        nic = self.nic_with_a_full_queue()
        before = self.state(nic.tracker)
        monitor = SystemMonitor(SimpleNamespace(nics=[nic], ordered=True))
        monitor.check_esid_agreement()
        assert monitor.report.clean
        assert self.state(nic.tracker) == before

    def test_peek_answers_what_current_esid_will(self):
        # The published esid is the side-effect-free peek: it answers
        # what current_esid does, and neither read moves the tracker.
        nic = self.nic_with_a_full_queue()
        before = self.state(nic.tracker)
        assert nic.esid == 2
        assert nic.tracker.current_esid() == 2
        assert self.state(nic.tracker) == before
