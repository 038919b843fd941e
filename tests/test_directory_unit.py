"""Unit tests for the directory controller internals."""

from typing import List, Optional, Tuple

from repro.coherence.directory import (DirectoryConfig, DirectoryController,
                                       DirEntry)
from repro.coherence.messages import (CoherenceRequest, DirForward, MemRead,
                                      ReqKind)

LINE = 0x4000_0000


class ScriptedNic:
    def __init__(self, node=0):
        self.node = node
        self.forwards: List[Tuple[object, Optional[int]]] = []
        self._req_listener = None

    def add_request_listener(self, fn):
        self._req_listener = fn

    def can_send_request(self):
        return True

    def send_request(self, payload, dst=None):
        self.forwards.append((payload, dst))

    def deliver(self, dir_ctrl, req, cycle):
        self._req_listener(req, req.requester, cycle, cycle)
        # Drain the access + the outbox (latency settles within ~100 cy).
        for c in range(cycle, cycle + 120):
            dir_ctrl.step(c)


def make_dir(scheme="LPD", node=5, pointers=2, cache_bytes=256 * 1024):
    nic = ScriptedNic(node)
    config = DirectoryConfig(scheme=scheme, n_nodes=9, pointers=pointers,
                             total_cache_bytes=cache_bytes)
    ctrl = DirectoryController(node, nic, config,
                               memory_map=lambda addr: 8, line_size=32)
    return ctrl, nic


def request(kind, requester, home=5, addr=LINE):
    req = CoherenceRequest(kind=kind, addr=addr, requester=requester)
    req.home_node = home
    return req


def fwd_kinds(nic):
    return [(type(p).__name__, getattr(p, "action", None), dst)
            for p, dst in nic.forwards]


class TestLpdFlow:
    def test_first_gets_goes_to_memory(self):
        ctrl, nic = make_dir()
        nic.deliver(ctrl, request(ReqKind.GETS, 1), 0)
        assert ("MemRead", None, 8) in fwd_kinds(nic)

    def test_second_gets_forwarded_to_owner(self):
        ctrl, nic = make_dir()
        nic.deliver(ctrl, request(ReqKind.GETX, 1), 0)     # 1 owns
        nic.forwards.clear()
        nic.deliver(ctrl, request(ReqKind.GETS, 2), 200)
        assert ("DirForward", "fwd_data", 1) in fwd_kinds(nic)

    def test_getx_invalidates_tracked_sharers(self):
        ctrl, nic = make_dir()
        nic.deliver(ctrl, request(ReqKind.GETS, 1), 0)
        nic.deliver(ctrl, request(ReqKind.GETS, 2), 200)
        nic.forwards.clear()
        nic.deliver(ctrl, request(ReqKind.GETX, 3), 400)
        kinds = fwd_kinds(nic)
        assert ("DirForward", "invalidate", 1) in kinds
        assert ("DirForward", "invalidate", 2) in kinds

    def test_pointer_overflow_broadcasts(self):
        ctrl, nic = make_dir(pointers=2)
        for sharer in (1, 2, 3):   # three sharers > two pointers
            nic.deliver(ctrl, request(ReqKind.GETS, sharer),
                        sharer * 200)
        nic.forwards.clear()
        nic.deliver(ctrl, request(ReqKind.GETX, 4), 1000)
        assert ("DirForward", "snoop", None) in fwd_kinds(nic)
        assert ctrl.stats.counter("dir.pointer_overflows") == 1

    def test_upgrade_acked_in_order(self):
        ctrl, nic = make_dir()
        nic.deliver(ctrl, request(ReqKind.GETX, 1), 0)
        nic.forwards.clear()
        nic.deliver(ctrl, request(ReqKind.GETX, 1), 200)  # owner upgrades
        assert ("DirForward", "upgrade_ack", 1) in fwd_kinds(nic)

    def test_put_acked_and_ownership_cleared(self):
        ctrl, nic = make_dir()
        nic.deliver(ctrl, request(ReqKind.GETX, 1), 0)
        nic.forwards.clear()
        nic.deliver(ctrl, request(ReqKind.PUT, 1), 200)
        assert ("DirForward", "put_ack", 1) in fwd_kinds(nic)
        nic.forwards.clear()
        nic.deliver(ctrl, request(ReqKind.GETS, 2), 400)
        assert ("MemRead", None, 8) in fwd_kinds(nic)   # memory owns again

    def test_stale_put_counted(self):
        ctrl, nic = make_dir()
        nic.deliver(ctrl, request(ReqKind.GETX, 1), 0)
        nic.deliver(ctrl, request(ReqKind.GETX, 2), 200)   # 2 now owns
        nic.deliver(ctrl, request(ReqKind.PUT, 1), 400)    # stale
        assert ctrl.stats.counter("dir.puts.stale") == 1


class TestHtFlow:
    def test_every_request_broadcasts(self):
        ctrl, nic = make_dir(scheme="HT")
        nic.deliver(ctrl, request(ReqKind.GETS, 1), 0)
        assert ("DirForward", "snoop", None) in fwd_kinds(nic)

    def test_memory_fetch_only_when_memory_owns(self):
        ctrl, nic = make_dir(scheme="HT")
        nic.deliver(ctrl, request(ReqKind.GETX, 1), 0)
        assert ("MemRead", None, 8) in fwd_kinds(nic)
        nic.forwards.clear()
        nic.deliver(ctrl, request(ReqKind.GETS, 2), 200)
        assert ("MemRead", None, 8) not in fwd_kinds(nic)

    def test_put_returns_ownership_bit(self):
        ctrl, nic = make_dir(scheme="HT")
        nic.deliver(ctrl, request(ReqKind.GETX, 1), 0)
        nic.deliver(ctrl, request(ReqKind.PUT, 1), 200)
        nic.forwards.clear()
        nic.deliver(ctrl, request(ReqKind.GETS, 2), 400)
        assert ("MemRead", None, 8) in fwd_kinds(nic)


class TestDirectoryCache:
    def test_eviction_sends_recalls(self):
        # Tiny cache: force entry eviction with live sharers.
        ctrl, nic = make_dir(cache_bytes=128 * 33)   # a handful of entries
        capacity = ctrl.cache.n_sets * ctrl.cache.ways
        for i in range(capacity * ctrl.cache.n_sets + 8):
            addr = LINE + i * 32 * ctrl.cache.n_sets  # same set
            nic.deliver(ctrl, request(ReqKind.GETS, 1, addr=addr), i * 200)
        assert ctrl.stats.counter("dir.cache_misses") > capacity
        assert any(k == ("DirForward", "recall", 1) for k in fwd_kinds(nic))

    def test_ignores_requests_for_other_homes(self):
        ctrl, nic = make_dir()
        req = request(ReqKind.GETS, 1, home=3)
        nic._req_listener(req, 1, 0, 0)
        ctrl.step(0)
        assert not nic.forwards
