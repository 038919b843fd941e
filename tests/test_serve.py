"""End-to-end tests for the ``repro serve`` sweep service.

The load-bearing contract: an experiment document submitted over HTTP
produces a results envelope **byte-identical** to ``repro run-file``
on the same document against the same cache state.  Around it: warm
re-submission does zero simulation work (proven at the scheduler),
identical points coalesce, a SIGKILLed worker loses no points, and the
failure paths are loud."""

import builtins
import io
import json

import pytest

from repro.api import envelope_bytes, run_experiment
from repro.api.client import ServeClient, ServeError
from repro.api.document import experiment_from_dict
from repro.serve import serve

KNOBS = dict(ops_per_core=8, workload_scale=0.02, think_scale=10.0)


@pytest.fixture(autouse=True)
def isolated_environment(monkeypatch):
    """Shield these tests, which drive ``repro``, from an exported
    REPRO_JOBS / REPRO_CACHE_DIR."""
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)


def tiny_document(name="serve-tiny", seeds=(0, 1), protocol="scorpio"):
    return {
        "schema": 1,
        "name": name,
        "runs": [dict(benchmark="fft", protocol=protocol, seed=seed,
                      **KNOBS) for seed in seeds],
    }


def local_envelope(document, cache_dir, jobs=2):
    """What ``repro run-file --cache-dir <fresh> --output`` writes."""
    collected = run_experiment(experiment_from_dict(document),
                               jobs=jobs, cache=str(cache_dir))
    return envelope_bytes(collected.payload())


def without_cache_key(envelope):
    payload = json.loads(envelope)
    payload.pop("cache", None)
    return payload


def trace_document(path):
    return {"schema": 1, "name": "traced",
            "runs": [{"builder": "scorpio",
                      "workload": {"kind": "trace", "path": str(path)}}]}


def spy_on_open(monkeypatch):
    """Record the path of every file opened from now on (any thread)."""
    opened = []
    real_open = io.open

    def spy(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", spy)
    monkeypatch.setattr(builtins, "open", spy)
    return opened


def run_cli(*argv):
    from repro.cli import main
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture
def server(tmp_path):
    instance = serve(tmp_path / "cache", port=0, workers=2).start()
    yield instance
    instance.stop()


@pytest.fixture
def client(server):
    return ServeClient(server.url)


class TestFrontend:
    def test_health(self, server, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["server"].startswith("repro-serve/")
        assert health["cache"] == server.service.backend.location

    def test_health_reports_the_api_version(self, client):
        from repro.api import API_VERSION
        assert client.health()["api_version"] == API_VERSION

    def test_unknown_paths_are_404(self, client):
        with pytest.raises(ServeError, match="HTTP 404"):
            client._request("/nope")
        with pytest.raises(ServeError, match="HTTP 404"):
            client.job("job-9999")

    def test_empty_and_invalid_bodies_are_400(self, client):
        with pytest.raises(ServeError, match="HTTP 400"):
            client._request("/v1/jobs", method="POST", data=b"")
        with pytest.raises(ServeError, match="HTTP 400"):
            client._request("/v1/jobs", method="POST", data=b"not json")

    @pytest.mark.parametrize("method,path", [
        ("POST", "/v1/jobs"), ("PUT", "/v1/cache/" + "ab" * 32)])
    def test_oversized_body_is_413_unread(self, server, method, path):
        """A declared length over the cap is answered with 413 before a
        byte of body is read (none is sent here: reading would hang),
        and the kept-alive connection closes."""
        import socket
        from urllib.parse import urlsplit

        from repro.serve.server import MAX_BODY_BYTES

        address = urlsplit(server.url)
        with socket.create_connection((address.hostname, address.port),
                                      timeout=10.0) as sock:
            sock.sendall(f"{method} {path} HTTP/1.1\r\n"
                         f"Host: {address.netloc}\r\n"
                         f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n"
                         .encode("ascii"))
            response = b""
            while True:                  # until the server closes
                chunk = sock.recv(65536)
                if not chunk:
                    break
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        status_line, *headers = head.decode("latin-1").split("\r\n")
        assert status_line.split()[1] == "413", status_line
        # The body was never read, so the connection cannot carry another
        # request: the frontend says so and closes it (the loop above
        # ended on EOF).
        assert "connection: close" in [h.lower() for h in headers]
        assert b"8388608-byte limit" in body
        assert server.service.backend.entries() == 0

    def test_head_is_501_and_serve_takes_no_spool(self, server, tmp_path):
        """A document reaches a host one way, ``POST /v1/jobs``, and the
        cache has no presence probe: ``HEAD`` is not a method the
        frontend serves, and ``repro serve`` has no spool option."""
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            f"{server.url}/v1/cache/{'ab' * 32}", method="HEAD")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10.0)
        assert excinfo.value.code == 501
        with pytest.raises(SystemExit) as excinfo:
            run_cli("serve", "--spool", str(tmp_path / "d"))
        assert excinfo.value.code == 2
        assert not (tmp_path / "d").exists()

    def test_invalid_document_is_422_with_detail(self, client):
        bad = {"schema": 1, "name": "bad",
               "runs": [{"benchmark": "fft", "protocol": "no-such"}]}
        with pytest.raises(ServeError, match="HTTP 422.*protocol"):
            client.submit_document(bad)

    @pytest.mark.parametrize("table, match", [
        ({"protocol": "tokenring"}, "unknown protocol"),
        ({"width": 1}, "width must be >= 2"),
        ({"max_cycles": -5}, "max_cycles must be >= 0"),
        ({"programs": ["iriw"], "width": 1, "height": 2}, "width must be"),
    ])
    def test_bad_litmus_table_is_422(self, client, table, match):
        with pytest.raises(ServeError, match=f"HTTP 422.*{match}"):
            client.submit_document({"schema": 1, "name": "bad",
                                    "litmus": table})
        assert client.jobs() == []

    def test_mistyped_workload_value_is_refused_at_submit(self, client):
        # Used to validate, then die in a forked worker after the retries.
        bad = {"schema": 1, "name": "bad",
               "runs": [{"builder": "scorpio",
                         "workload": {"kind": "benchmark", "name": "fft",
                                      "ops_per_core": "8"}}]}
        with pytest.raises(ServeError,
                           match="HTTP 422.*'ops_per_core'.*must be int"):
            client.submit_document(bad)
        assert client.jobs() == []

    def test_lone_write_node_outside_the_chip_is_422(self, client):
        # Used to validate, then fail in a forked worker after the retries.
        bad = {"schema": 1, "name": "bad",
               "configs": {"mesh3x3": {"preset": "variant", "width": 3,
                                       "height": 3}},
               "runs": [{"builder": "scorpio", "config": "mesh3x3",
                         "workload": {"kind": "lone_write", "node": 20}}]}
        with pytest.raises(ServeError, match="HTTP 422.*lone_write node 20 "
                                             "outside the 9-core system"):
            client.submit_document(bad)
        assert client.jobs() == []

    def test_bench_table_is_an_unknown_key(self, client):
        # The `[bench]` table ran wall-clock timing on the dispatch (or
        # HTTP handler) thread and put it in the byte-canonical envelope.
        for document in ({"schema": 1, "name": "b", "bench": {"smoke": True}},
                         {"schema": 1, "name": "b", "bench": {"smoke": True},
                          "runs": [{"benchmark": "fft", "ops_per_core": 2}]}):
            with pytest.raises(ServeError,
                               match="HTTP 422.*unknown key.*bench"):
                client.submit_document(document)
        assert client.jobs() == []

    def test_trace_workload_is_refused_unopened(self, client, tmp_path,
                                                monkeypatch):
        # Resolving a trace workload reads and hashes a file on the
        # serving host: the door refuses the document before that.
        path = tmp_path / "t.trace"
        path.write_text("# scorpio-trace v1\ncore 0\nR 0x0 1\n")
        opened = spy_on_open(monkeypatch)
        with pytest.raises(ServeError, match="HTTP 422.*'trace'"):
            client.submit_document(trace_document(path))
        assert client.jobs() == []
        assert str(path) not in opened
        # The spy does see the file when the workload is resolved.
        from repro.experiments.builders import resolve_workload
        resolve_workload({"kind": "trace", "path": str(path)})
        assert str(path) in opened


class TestByteIdentity:
    def test_http_envelope_identical_to_run_file(self, tmp_path, client):
        """The tentpole contract: same document, same (fresh) cache
        state -> the HTTP result is the run-file envelope, byte for
        byte, including the cache stats key."""
        document = tiny_document()
        outcome = client.run(document, timeout=120.0)
        expected = local_envelope(document, tmp_path / "local-cache")
        assert outcome.envelope == expected
        assert outcome.payload["cache"] == {"hits": 0, "misses": 2}

    def test_warm_resubmit_does_zero_simulation_work(self, server, client):
        document = tiny_document()
        cold = client.run(document, timeout=120.0)
        spawned_before = server.service.scheduler.spawned
        warm = client.run(document, timeout=120.0)
        # Scheduler-level proof: no worker process was started.
        assert server.service.scheduler.spawned == spawned_before
        assert warm.summary["cache"] == {"hits": 2, "misses": 0}
        assert warm.payload["cache"] == {"hits": 2, "misses": 0}
        # Identical but for the cache stats (hits instead of misses).
        assert without_cache_key(warm.envelope) \
            == without_cache_key(cold.envelope)

    def test_a_put_poisoned_entry_is_a_miss_and_repaired(self, server,
                                                         client):
        """A store may hold anything under a fingerprint (a shared
        directory is written by every host); a job reads a non-payload
        as a miss, simulates the point and stores the real payload
        back."""
        document = tiny_document()
        cold = client.run(document, timeout=120.0)
        fingerprint = cold.payload["results"][0]["fingerprint"]
        server.service.backend.put(fingerprint, {"schema": 1})
        spawned_before = server.service.scheduler.spawned
        warm = client.run(document, timeout=120.0)
        assert warm.payload["cache"] == {"hits": 1, "misses": 1}
        assert server.service.scheduler.spawned == spawned_before + 1
        assert without_cache_key(warm.envelope) \
            == without_cache_key(cold.envelope)
        assert server.service.backend.get(fingerprint) \
            == cold.payload["results"][0]

    def test_duplicate_points_coalesce_into_one_simulation(self, server,
                                                           client):
        document = tiny_document(seeds=(0, 0))
        spawned_before = server.service.scheduler.spawned
        outcome = client.run(document, timeout=120.0)
        # run_sweep accounting: each requested point is its own miss...
        assert outcome.summary["cache"] == {"hits": 0, "misses": 2}
        # ...but the fingerprint simulated exactly once.
        assert server.service.scheduler.spawned == spawned_before + 1
        results = outcome.payload["results"]
        assert len(results) == 2 and results[0] == results[1]


class TestJobLifecycle:
    def test_events_stream_replays_and_follows(self, client):
        events = []
        outcome = client.run(tiny_document(seeds=(0,)), timeout=120.0,
                             on_event=events.append)
        kinds = [event["event"] for event in events]
        assert kinds[0] == "queued"
        assert kinds.count("point") == 1
        assert kinds[-1] == "done"
        assert all(event["job"] == outcome.summary["job"]
                   for event in events)

    def test_jobs_listing(self, client):
        outcome = client.run(tiny_document(seeds=(0,)), timeout=120.0)
        jobs = client.jobs()
        assert [job["job"] for job in jobs] == [outcome.summary["job"]]
        assert jobs[0]["state"] == "done"
        assert client.job(outcome.summary["job"])["state"] == "done"

    def test_failed_job_is_loud_and_result_is_410(self, tmp_path,
                                                  monkeypatch):
        import repro.serve.scheduler as scheduler_mod

        def doomed_worker(item):
            raise RuntimeError("deliberate point failure")

        monkeypatch.setattr(scheduler_mod, "_pool_worker", doomed_worker)
        server = serve(tmp_path / "cache", port=0, workers=1,
                       retries=0).start()
        try:
            client = ServeClient(server.url)
            with pytest.raises(ServeError,
                               match="deliberate point failure"):
                client.run(tiny_document(seeds=(0,)), timeout=120.0)
            job_id = client.jobs()[0]["job"]
            summary = client.job(job_id)
            assert summary["state"] == "failed"
            assert len(summary["failures"]) == 1
            with pytest.raises(ServeError, match="HTTP 410"):
                client.result_bytes(job_id)
        finally:
            server.stop()


class CountingServer:
    """A frontend whose handler counts the connections it accepted, the
    ones it closed and the responses it sent (one per request)."""

    def __init__(self, monkeypatch, cache_dir):
        import repro.serve.server as server_mod

        counts = self.counts = {"connections": 0, "closed": 0,
                                "requests": 0}

        class Counting(server_mod._Handler):
            def setup(self):
                counts["connections"] += 1
                super().setup()

            def finish(self):
                super().finish()
                counts["closed"] += 1

            def send_response(self, *args, **kwargs):
                counts["requests"] += 1
                super().send_response(*args, **kwargs)

        monkeypatch.setattr(server_mod, "_Handler", Counting)
        self.server = serve(cache_dir, port=0, workers=2).start()
        self.url = self.server.url


@pytest.fixture
def counting(monkeypatch, tmp_path):
    instance = CountingServer(monkeypatch, tmp_path / "cache")
    yield instance
    instance.server.stop()


class TestConnections:
    """One client thread, one kept-alive connection."""

    def test_warm_jobs_from_one_thread_share_one_connection(self, counting):
        client = ServeClient(counting.url)
        document = tiny_document()
        cold = client.run(document, timeout=120.0)
        for _ in range(100):
            warm = client.run(document, timeout=120.0)
            assert warm.summary["cache"] == {"hits": 2, "misses": 0}
        # Each job is submit, events stream, result: three requests.
        assert counting.counts["requests"] == 3 * 101
        assert counting.counts["connections"] == 1
        assert without_cache_key(warm.envelope) \
            == without_cache_key(cold.envelope)

    def test_wait_on_a_finished_job_is_one_request(self, counting):
        client = ServeClient(counting.url)
        events = []
        outcome = client.run(tiny_document(seeds=(0,)), timeout=120.0)
        before = counting.counts["requests"]
        summary = client.wait(outcome.summary["job"], on_event=events.append)
        assert counting.counts["requests"] == before + 1
        assert summary == client.job(outcome.summary["job"])
        assert summary["state"] == "done"
        assert events[-1]["event"] == "done"
        assert events[-1]["summary"] == summary

    def test_idle_connection_is_closed_and_the_client_reconnects(
            self, monkeypatch, tmp_path):
        import time

        import repro.serve.server as server_mod

        monkeypatch.setattr(server_mod, "IDLE_TIMEOUT", 0.2)
        counting = CountingServer(monkeypatch, tmp_path / "cache")
        try:
            client = ServeClient(counting.url)
            assert client.health()["status"] == "ok"
            deadline = time.monotonic() + 10.0
            while counting.counts["closed"] == 0:
                assert time.monotonic() < deadline, "idle connection kept"
                time.sleep(0.05)
            assert client.health()["status"] == "ok"
            assert client.health()["status"] == "ok"
            assert counting.counts["connections"] == 2
            assert counting.counts["requests"] == 3
        finally:
            counting.server.stop()

    def test_a_stopped_frontend_closes_its_open_connections(self, tmp_path):
        server = serve(tmp_path / "cache", port=0, workers=1).start()
        client = ServeClient(server.url)
        assert client.health()["status"] == "ok"
        server.stop()
        with pytest.raises(ServeError, match="cannot reach"):
            client.health()

    def test_a_refused_unread_body_closes_its_connection(self, counting):
        """A body the frontend did not read cannot stay on the
        connection, where it would be parsed as the next request."""
        client = ServeClient(counting.url)
        with pytest.raises(ServeError, match="HTTP 404"):
            client._request("/v1/nope", method="POST", data=b'{"x": 1}')
        assert client.health()["status"] == "ok"
        assert counting.counts["connections"] == 2
        assert counting.counts["requests"] == 2

    def test_a_forked_child_opens_its_own_connection(self, counting):
        """What a ``SlotPool`` worker inherits: a remote backend whose
        thread already holds a connection.  The child opens its own, and
        the parent's stays usable."""
        import multiprocessing

        from repro.core.api import RunResult
        from repro.serve import RemoteCacheBackend

        fp = "ab" * 32
        payload = RunResult("scorpio", "fft", 9, 100, 72, 1.0,
                            fingerprint=fp).payload()
        remote = RemoteCacheBackend(counting.url)
        remote.put(fp, payload)
        context = multiprocessing.get_context("fork")
        reader, writer = context.Pipe(duplex=False)
        child = context.Process(target=lambda: writer.send(remote.get(fp)))
        child.start()
        assert reader.poll(30.0)
        from_child = reader.recv()
        child.join(10.0)
        assert child.exitcode == 0
        assert remote.get(fp) == from_child == payload
        assert counting.counts["connections"] == 2
        assert counting.counts["requests"] == 3

    def test_urlopen_reads_the_chunked_events_stream(self, client):
        import urllib.request

        outcome = client.run(tiny_document(seeds=(0,)), timeout=120.0)
        job_id = outcome.summary["job"]
        with urllib.request.urlopen(
                f"{client.base_url}/v1/jobs/{job_id}/events",
                timeout=10.0) as response:
            assert response.headers["Transfer-Encoding"] == "chunked"
            events = [json.loads(line) for line in response]
        assert [event["event"] for event in events] \
            == ["queued", "point", "done"]
        assert events[-1]["summary"] == client.job(job_id)


class TestWorkerDeath:
    def test_sigkilled_worker_loses_no_points(self, tmp_path, monkeypatch):
        """SIGKILL a worker mid-job: the job still completes via retry
        and the envelope is byte-identical to an undisturbed run."""
        import os
        import signal

        import repro.serve.scheduler as scheduler_mod

        real_worker = scheduler_mod._pool_worker
        flag = tmp_path / "killed-once"

        def kill_once_worker(item):
            if not flag.exists():
                flag.touch()
                os.kill(os.getpid(), signal.SIGKILL)
            return real_worker(item)

        monkeypatch.setattr(scheduler_mod, "_pool_worker",
                            kill_once_worker)
        server = serve(tmp_path / "cache", port=0, workers=1,
                       retries=1).start()
        try:
            document = tiny_document()
            outcome = ServeClient(server.url).run(document, timeout=120.0)
            assert flag.exists()           # the kill really happened
            assert outcome.summary["retries"] >= 1
            assert outcome.envelope \
                == local_envelope(document, tmp_path / "undisturbed")
        finally:
            server.stop()


class TestCli:
    def test_submit_wait_and_jobs(self, tmp_path, server):
        document = tiny_document(seeds=(0,))
        doc_path = tmp_path / "doc.json"
        doc_path.write_text(json.dumps(document), encoding="utf-8")
        out_path = tmp_path / "envelope.json"

        code, text = run_cli("submit", str(doc_path), "--url", server.url,
                             "--wait", "--output", str(out_path))
        assert code == 0
        assert "done: 1 points" in text
        assert out_path.read_bytes() \
            == local_envelope(document, tmp_path / "local-cache")

        code, text = run_cli("submit", str(doc_path), "--url", server.url)
        assert code == 0
        assert "job-0002" in text

        code, text = run_cli("jobs", "--url", server.url)
        assert code == 0
        assert "job-0001" in text and "done" in text

    def test_submit_unreachable_service_fails_loud(self, tmp_path):
        doc_path = tmp_path / "doc.json"
        doc_path.write_text(json.dumps(tiny_document(seeds=(0,))),
                            encoding="utf-8")
        code, text = run_cli("submit", str(doc_path),
                             "--url", "http://127.0.0.1:1", "--wait")
        assert code == 1
        assert "error:" in text
