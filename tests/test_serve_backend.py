"""Cache backend layer: local/remote backends behind one protocol.

Covers the backend split (`as_backend` coercions, `ResultCache`
accounting over either backend), the satellite-2 stress proof that
concurrent cross-process ``put`` of the same fingerprint is
last-writer-wins and never torn, and the remote HTTP backend against a
live ``repro serve`` frontend — including the loud-failure contract
when the frontend is unreachable."""

import json
import multiprocessing
import os
from pathlib import Path

import pytest

from repro.core.api import RunResult
from repro.core.config import ChipConfig
from repro.experiments import (LocalDirBackend, ResultCache, as_backend,
                               benchmark_spec, run_sweep)
from repro.serve import CacheUnavailableError, RemoteCacheBackend, serve

KNOBS = dict(ops_per_core=8, workload_scale=0.02, think_scale=10.0)


def tiny_spec(**overrides):
    params = dict(benchmark="fft", protocol="scorpio",
                  config=ChipConfig.variant(3, 3), seed=0, **KNOBS)
    params.update(overrides)
    return benchmark_spec(**params)


class TestAsBackend:
    def test_path_and_str_become_local(self, tmp_path):
        for store in (tmp_path, str(tmp_path)):
            backend = as_backend(store)
            assert isinstance(backend, LocalDirBackend)
            assert backend.directory == tmp_path

    def test_http_url_becomes_remote(self):
        backend = as_backend("http://somewhere:1234/")
        assert isinstance(backend, RemoteCacheBackend)
        assert backend.base_url == "http://somewhere:1234"

    def test_backend_instances_pass_through(self, tmp_path):
        backend = LocalDirBackend(tmp_path)
        assert as_backend(backend) is backend


class TestResultCacheAccounting:
    def test_contains_is_never_counted(self, tmp_path):
        cache = ResultCache(tmp_path)
        payload = RunResult("scorpio", "fft", 9, 100, 72, 1.0,
                            fingerprint="ab" * 32).payload()
        cache.put("ab" * 32, payload)
        assert cache.contains("ab" * 32)
        assert not cache.contains("cd" * 32)
        assert (cache.hits, cache.misses) == (0, 0)
        assert cache.get("ab" * 32) == payload
        assert cache.get("cd" * 32) is None
        assert (cache.hits, cache.misses) == (1, 1)

    def test_stats_includes_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, {"x": 1})
        assert cache.stats() == {"hits": 0, "misses": 0, "entries": 1}


# ----------------------------------------------------------------------
# Satellite 2: concurrent same-fingerprint put is last-writer-wins,
# never torn.
# ----------------------------------------------------------------------

FP = "f0" * 32
WRITERS = 4
ROUNDS = 60
# Payloads are large enough that a non-atomic write would be observably
# torn (json.load of a partial file fails -> get() returns None, and a
# mixed file would fail the self-consistency check below).
FILLER = "x" * 4096


def _writer_main(directory, writer_id, start, done):
    backend = LocalDirBackend(directory)
    payload = {"writer": writer_id, "filler": FILLER,
               "check": f"writer-{writer_id}"}
    start.wait()
    for _ in range(ROUNDS):
        backend.put(FP, payload)
    done.put(writer_id)


class TestConcurrentPutStress:
    def test_cross_process_same_fingerprint_put_never_tears(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        start = ctx.Event()
        done = ctx.Queue()
        procs = [ctx.Process(target=_writer_main,
                             args=(str(tmp_path), w, start, done))
                 for w in range(WRITERS)]
        for proc in procs:
            proc.start()
        backend = LocalDirBackend(tmp_path)
        start.set()
        observed = set()
        finished = 0
        while finished < WRITERS:
            payload = backend.get(FP)
            if payload is not None:
                # A torn read either fails JSON parsing (get() -> None,
                # caught above as an impossible "missing after first
                # put" only transiently) or mixes two writers' bytes —
                # the self-consistency check catches the latter.
                assert payload["filler"] == FILLER
                assert payload["check"] == f"writer-{payload['writer']}"
                observed.add(payload["writer"])
            while not done.empty():
                done.get()
                finished += 1
        for proc in procs:
            proc.join(timeout=10.0)
            assert proc.exitcode == 0
        # Last writer wins: the final entry is one writer's complete
        # payload, and no .tmp litter survives.
        final = backend.get(FP)
        assert final is not None
        assert final["check"] == f"writer-{final['writer']}"
        entry_dir = tmp_path / FP[:2]
        assert sorted(p.name for p in entry_dir.iterdir()) \
            == [f"{FP}.json"]
        assert observed  # the reader really raced the writers


# ----------------------------------------------------------------------
# Remote backend against a live frontend
# ----------------------------------------------------------------------

@pytest.fixture
def frontend(tmp_path):
    server = serve(tmp_path / "cache", port=0, workers=1).start()
    yield server
    server.stop()


class CountingBackend(LocalDirBackend):
    def __init__(self, directory):
        super().__init__(directory)
        self.calls = []

    def get(self, fingerprint):
        self.calls.append(("get", fingerprint))
        return super().get(fingerprint)

    def put(self, fingerprint, payload):
        self.calls.append(("put", fingerprint))
        super().put(fingerprint, payload)


class TestSchedulerWriteThrough:
    def test_a_recalled_point_is_read_once_and_not_written(self, tmp_path):
        """The dispatch-time precheck answers from the store; the
        write-through then has nothing to write."""
        import threading

        from repro.serve.scheduler import PointScheduler

        fp = "ab" * 32
        payload = RunResult("scorpio", "fft", 9, 100, 72, 1.0,
                            fingerprint=fp).payload()
        LocalDirBackend(tmp_path).put(fp, payload)
        backend = CountingBackend(tmp_path)
        scheduler = PointScheduler(backend, workers=1)
        seen, done = [], threading.Event()
        try:
            scheduler.submit(fp, tiny_spec(), lambda kind, _fp, value, _e:
                             (seen.append((kind, value)), done.set()))
            assert done.wait(10.0)
        finally:
            scheduler.stop()
        assert seen == [("done", payload)]
        assert backend.calls == [("get", fp)]
        assert scheduler.spawned == 0


class TestSchedulerWorkers:
    def test_cold_jobs_fork_each_worker_once(self, tmp_path):
        """Two cold jobs in a row run on the scheduler's long-lived
        workers: no more processes are forked than it has workers."""
        import threading

        from repro.serve.scheduler import PointScheduler

        scheduler = PointScheduler(LocalDirBackend(tmp_path), workers=2)
        kinds, done = [], threading.Semaphore(0)
        try:
            for seeds in ((0, 1), (2, 3)):
                for seed in seeds:
                    spec = tiny_spec(seed=seed)
                    scheduler.submit(spec.fingerprint(), spec,
                                     lambda kind, *_: (kinds.append(kind),
                                                       done.release()))
                for _ in seeds:
                    assert done.acquire(timeout=60.0)
        finally:
            scheduler.stop()
        assert kinds == ["done"] * 4
        assert scheduler.spawned == 4
        assert scheduler.forked <= 2


class TestRemoteCacheBackend:
    def test_round_trip_contains_entries(self, frontend):
        remote = RemoteCacheBackend(frontend.url)
        fp = "ab" * 32
        payload = RunResult("scorpio", "fft", 9, 100, 72, 1.0,
                            fingerprint=fp).payload()
        assert remote.get(fp) is None
        assert not remote.contains(fp)
        assert remote.entries() == 0
        remote.put(fp, payload)
        assert remote.contains(fp)
        assert remote.get(fp) == payload
        assert remote.entries() == 1
        # The entry landed in the frontend's local store, byte-for-byte
        # what LocalDirBackend would have written.
        local = frontend.service.backend
        assert local.get(fp) == payload

    def test_put_refuses_what_is_not_a_result_payload(self, frontend):
        """``PUT /v1/cache/<name>`` stores a result payload and answers
        400 to any other JSON, storing nothing.  The name is not checked
        against the payload's fingerprint here: reads do that."""
        import urllib.error
        import urllib.request

        local = frontend.service.backend
        fp = "cd" * 32
        for body in (b"[]", b'{"schema": 1}'):
            request = urllib.request.Request(
                f"{frontend.url}/v1/cache/{fp}", data=body, method="PUT")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10.0)
            assert excinfo.value.code == 400
            assert not local.contains(fp)
        payload = RunResult("scorpio", "fft", 9, 100, 72, 1.0,
                            fingerprint="ef" * 32).payload()
        request = urllib.request.Request(
            f"{frontend.url}/v1/cache/{fp}",
            data=json.dumps(payload).encode(), method="PUT")
        with urllib.request.urlopen(request, timeout=10.0) as response:
            assert response.status == 200
        assert local.get(fp) == payload

    @pytest.mark.parametrize("name", ["..", "a%2Fb", "ab.json", "a" * 129])
    def test_entry_names_cannot_escape_the_cache_dir(self, frontend,
                                                     tmp_path, name):
        """A cache entry name is a plain token: anything else is refused
        by the local backend and is HTTP 400 on GET, HEAD and PUT, and
        nothing is written — inside the cache directory or next to it."""
        import urllib.error
        import urllib.request

        from repro.experiments.cache import CacheNameError

        local = frontend.service.backend
        for call in (local.get, local.contains,
                     lambda fp: local.put(fp, {"x": 1})):
            with pytest.raises(CacheNameError):
                call(name)
        payload = json.dumps(RunResult("scorpio", "fft", 9, 100, 72, 1.0,
                                       fingerprint=name).payload())
        for method, data in (("GET", None), ("HEAD", None),
                             ("PUT", payload.encode())):
            request = urllib.request.Request(
                f"{frontend.url}/v1/cache/{name}", data=data, method=method)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10.0)
            assert excinfo.value.code == 400
        assert local.entries() == 0
        assert [path for path in tmp_path.rglob("*") if path.is_file()] == []

    def test_unreachable_frontend_is_loud(self):
        remote = RemoteCacheBackend("http://127.0.0.1:1", timeout=0.5)
        with pytest.raises(CacheUnavailableError):
            remote.get("ab" * 32)
        with pytest.raises(CacheUnavailableError):
            remote.put("ab" * 32, {"x": 1})
        with pytest.raises(CacheUnavailableError):
            remote.contains("ab" * 32)

    def test_run_sweep_through_remote_cache(self, frontend):
        """A worker host using the frontend URL as its cache: the first
        sweep populates the shared store, the second is all hits."""
        specs = [tiny_spec(seed=s) for s in (0, 1)]
        cold_cache = ResultCache(as_backend(frontend.url))
        cold = run_sweep(specs, jobs=1, cache=cold_cache)
        assert (cold_cache.hits, cold_cache.misses) == (0, 2)
        warm_cache = ResultCache(as_backend(frontend.url))
        warm = run_sweep(specs, jobs=1, cache=warm_cache)
        assert (warm_cache.hits, warm_cache.misses) == (2, 0)
        assert all(r.cached for r in warm)
        assert [r.payload() for r in warm] == [r.payload() for r in cold]
