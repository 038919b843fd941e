"""The ``repro serve`` frontend: a stdlib ThreadingHTTPServer.

Wire protocol (all JSON unless noted; see docs/architecture.md,
"The sweep service"):

==========  =============================  ==================================
method      path                           meaning
==========  =============================  ==================================
GET         /v1/health                     frontend liveness + identity
POST        /v1/jobs                       submit an experiment document
                                           (the document dict itself as the
                                           request body)
GET         /v1/jobs                       job summaries, submission order
GET         /v1/jobs/<id>                  one job's status summary
GET         /v1/jobs/<id>/result           the results envelope (bytes are
                                           exactly what ``repro run-file
                                           --output`` writes); 409 until the
                                           job is done, 410 if it failed
GET         /v1/jobs/<id>/events           NDJSON progress stream; stays
                                           open until the job is terminal
GET/HEAD    /v1/cache/<fingerprint>        shared cache read/probe (404=miss;
                                           400 for a name outside
                                           ``[0-9A-Za-z_-]{1,128}``)
PUT         /v1/cache/<fingerprint>        shared cache write (a result
                                           payload; 400 for anything else)
GET         /v1/cache                      cache summary (entry count)
==========  =============================  ==================================

Multi-host deployments run one ``repro serve`` per host.  Hosts that
share a filesystem point at the same ``--cache-dir`` and (optionally)
the same ``--spool`` directory — spool claims go through an atomic
rename, so every dropped document is executed by exactly one host.
Hosts without the shared filesystem pass the frontend's URL as their
cache (``--cache-dir http://frontend:8765``), which resolves to
:class:`~repro.serve.backend.RemoteCacheBackend`.
"""

from __future__ import annotations

import json
import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.api.document import (DocumentError, document_to_dict,
                                experiment_from_dict)
from repro.experiments.cache import (CacheBackend, CacheNameError,
                                     as_backend, is_result_payload)
from repro.serve.jobs import JobManager
from repro.serve.scheduler import PointScheduler

SERVER_NAME = "repro-serve/1"
# The largest request body (a document or a cache payload) the frontend
# reads; a longer declared Content-Length is refused unread.
MAX_BODY_BYTES = 8 * 1024 * 1024


def _refuse_trace_workloads(data: Any, what: str) -> None:
    """A served document may not name a ``trace`` workload: resolving
    one reads and hashes a file on the serving host.  Checked on the
    raw document, before anything is resolved."""
    runs = data.get("runs") if isinstance(data, dict) else None
    for index, run in enumerate(runs if isinstance(runs, list) else ()):
        workload = run.get("workload") if isinstance(run, dict) else None
        if isinstance(workload, dict) and workload.get("kind") == "trace":
            raise DocumentError(
                f"{what}.runs[{index}]: the 'trace' workload kind reads a "
                f"file on this host and is not accepted by repro serve; "
                f"run the document with 'repro run-file'")


class SweepService:
    """Everything behind the HTTP surface: scheduler, jobs, spool."""

    def __init__(self, cache: Union[str, Path, CacheBackend],
                 workers: int = 2, retries: int = 1,
                 point_timeout: Optional[float] = None,
                 spool: Union[None, str, Path] = None,
                 spool_interval: float = 1.0) -> None:
        self.backend = as_backend(cache)
        self.scheduler = PointScheduler(self.backend, workers=workers,
                                        retries=retries,
                                        point_timeout=point_timeout)
        self.jobs = JobManager(self.backend, self.scheduler)
        self.spool = None if spool is None else Path(spool).expanduser()
        self._spool_interval = spool_interval
        # name -> (size, mtime_ns) of each unclaimed drop the last scan saw.
        self._spool_seen: Dict[str, Tuple[int, int]] = {}
        self._stop = threading.Event()
        self._spool_thread: Optional[threading.Thread] = None
        if self.spool is not None:
            self.spool.mkdir(parents=True, exist_ok=True)
            self._spool_thread = threading.Thread(
                target=self._watch_spool, name="repro-serve-spool",
                daemon=True)
            self._spool_thread.start()

    def submit_document(self, data: Dict[str, Any],
                        source: str = "<http>"):
        _refuse_trace_workloads(data, source)
        experiment = experiment_from_dict(data, source=source)
        return self.jobs.submit(experiment)

    def stop(self) -> None:
        self._stop.set()
        if self._spool_thread is not None:
            self._spool_thread.join(timeout=5.0)
        self.scheduler.stop()

    # ------------------------------------------------------------------
    # Spool directory
    # ------------------------------------------------------------------

    def _watch_spool(self) -> None:
        """Scan the spool every ``spool_interval`` seconds until stopped."""
        while not self._stop.is_set():
            self._scan_spool()
            self._stop.wait(self._spool_interval)

    def _scan_spool(self) -> None:
        """One pass over dropped ``.toml``/``.json`` documents: claim and
        run each one that has settled.

        A drop has settled when it is non-empty and its ``(size,
        mtime_ns)`` equals what the previous pass saw, so a document
        whose writer is still writing is left for a later pass.  The
        claim is an atomic rename to ``<name>.claimed.<pid>`` — on a
        shared spool, exactly one host wins each document.  The winner
        writes ``<stem>.result.json`` (the canonical envelope) or
        ``<stem>.error.txt`` next to it and removes the claim.
        """
        seen: Dict[str, Tuple[int, int]] = {}
        for path in sorted(self.spool.glob("*")):
            if path.suffix.lower() not in (".toml", ".json") \
                    or path.name.endswith(".result.json"):
                continue
            try:
                stat = path.stat()
            except OSError:
                continue            # claimed or removed meanwhile
            if stat.st_size == 0:
                continue
            seen[path.name] = (stat.st_size, stat.st_mtime_ns)
            if self._spool_seen.get(path.name) != seen[path.name]:
                continue            # new or still changing
            claimed = path.with_name(f"{path.name}.claimed.{os.getpid()}")
            try:
                os.rename(path, claimed)
            except OSError:
                continue            # another host won the claim
            del seen[path.name]
            self._run_spooled(path, claimed)
        self._spool_seen = seen

    def _run_spooled(self, original: Path, claimed: Path) -> None:
        out = original.with_name(original.stem + ".result.json")
        try:
            job = self.submit_document(document_to_dict(claimed),
                                       source=str(original))
            job.wait()
            if job.state != "done" or job.envelope is None:
                raise RuntimeError(job.error or "job failed")
            tmp = out.with_suffix(".json.tmp")
            tmp.write_bytes(job.envelope)
            os.replace(tmp, out)
        except Exception as exc:
            # Write-then-rename, like the result: a poller must never
            # read the file empty.
            error_path = original.with_name(original.stem + ".error.txt")
            tmp = error_path.with_suffix(".txt.tmp")
            tmp.write_text(f"{exc}\n", encoding="utf-8")
            os.replace(tmp, error_path)
        finally:
            try:
                claimed.unlink()
            except OSError:
                pass


def _bad_name_is_400(method):
    """Answer 400 when the backend refuses a cache entry name."""
    def guarded(self) -> None:
        try:
            method(self)
        except CacheNameError as exc:
            self._error(400, str(exc))
    return guarded


class _Handler(BaseHTTPRequestHandler):
    server_version = SERVER_NAME
    service: SweepService        # injected by serve()
    quiet = True

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def log_message(self, format: str, *args) -> None:
        if not self.quiet:
            BaseHTTPRequestHandler.log_message(self, format, *args)

    def _send(self, status: int, body: bytes,
              content_type: str = "application/json") -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        self._send(status, (json.dumps(payload, sort_keys=True) + "\n"
                            ).encode("utf-8"))

    def _error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _read_body(self, empty: str) -> Optional[bytes]:
        """The request body, or None once the request is answered: 413
        for a declared length over :data:`MAX_BODY_BYTES` (nothing is
        read, so the connection closes), 400 with *empty* for none."""
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = 0
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            self._error(413, f"request body of {length} bytes is over the "
                             f"{MAX_BODY_BYTES}-byte limit")
            return None
        body = self.rfile.read(length) if length > 0 else b""
        if not body:
            self._error(400, empty)
            return None
        return body

    def _route(self) -> Tuple[str, ...]:
        return tuple(part for part in self.path.split("?", 1)[0].split("/")
                     if part)

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------

    @_bad_name_is_400
    def do_GET(self) -> None:            # noqa: N802 (http.server API)
        route = self._route()
        service = self.service
        if route == ("v1", "health"):
            from repro.api import API_VERSION
            self._send_json(200, {
                "status": "ok", "server": SERVER_NAME,
                "api_version": API_VERSION,
                "cache": service.backend.location,
                "in_flight": service.scheduler.in_flight()})
        elif route == ("v1", "jobs"):
            self._send_json(200, {"jobs": [job.summary() for job
                                           in service.jobs.jobs()]})
        elif len(route) >= 3 and route[:2] == ("v1", "jobs"):
            self._job_route(route)
        elif route == ("v1", "cache"):
            self._send_json(200, {"entries": service.backend.entries(),
                                  "location": service.backend.location})
        elif len(route) == 3 and route[:2] == ("v1", "cache"):
            payload = service.backend.get(route[2])
            if payload is None:
                self._error(404, f"no cache entry {route[2]}")
            else:
                self._send(200, json.dumps(payload, sort_keys=True)
                           .encode("utf-8"))
        else:
            self._error(404, f"unknown path {self.path}")

    def _job_route(self, route: Tuple[str, ...]) -> None:
        job = self.service.jobs.get(route[2])
        if job is None:
            self._error(404, f"unknown job {route[2]}")
            return
        if len(route) == 3:
            self._send_json(200, job.summary())
        elif route[3] == "result":
            with job.condition:
                state, envelope = job.state, job.envelope
            if state == "done" and envelope is not None:
                self._send(200, envelope)
            elif state == "failed":
                self._error(410, job.error or "job failed")
            else:
                self._error(409, f"job {job.id} still running")
        elif route[3] == "events":
            self._stream_events(job)
        else:
            self._error(404, f"unknown path {self.path}")

    def _stream_events(self, job) -> None:
        """NDJSON progress: replay the log, then follow until terminal."""
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Connection", "close")
        self.end_headers()
        cursor = 0
        while True:
            with job.condition:
                job.condition.wait_for(
                    lambda: len(job.events) > cursor
                    or job.state != "running", timeout=30.0)
                batch = job.events[cursor:]
                cursor = len(job.events)
                terminal = job.state != "running"
            for event in batch:
                line = (json.dumps(event, sort_keys=True) + "\n"
                        ).encode("utf-8")
                try:
                    self.wfile.write(line)
                    self.wfile.flush()
                except OSError:
                    return           # client went away
            if terminal and cursor >= len(job.events):
                return

    @_bad_name_is_400
    def do_HEAD(self) -> None:           # noqa: N802
        route = self._route()
        if len(route) == 3 and route[:2] == ("v1", "cache"):
            if self.service.backend.contains(route[2]):
                self._send(200, b"")
            else:
                self._error(404, f"no cache entry {route[2]}")
        else:
            self._error(404, f"unknown path {self.path}")

    def do_POST(self) -> None:           # noqa: N802
        route = self._route()
        if route != ("v1", "jobs"):
            self._error(404, f"unknown path {self.path}")
            return
        body = self._read_body("empty request body (expected an "
                               "experiment document as JSON)")
        if body is None:
            return
        try:
            data = json.loads(body)
        except ValueError as exc:
            self._error(400, f"invalid JSON: {exc}")
            return
        try:
            job = self.service.submit_document(data)
        except DocumentError as exc:
            self._error(422, str(exc))
            return
        self._send_json(202, job.summary())

    @_bad_name_is_400
    def do_PUT(self) -> None:            # noqa: N802
        route = self._route()
        if len(route) != 3 or route[:2] != ("v1", "cache"):
            self._error(404, f"unknown path {self.path}")
            return
        body = self._read_body("empty cache payload")
        if body is None:
            return
        try:
            payload = json.loads(body)
        except ValueError as exc:
            self._error(400, f"invalid JSON: {exc}")
            return
        if not is_result_payload(payload):
            self._error(400, "not a result payload (expected a JSON "
                        "object with every result key at the current "
                        "schema)")
            return
        self.service.backend.put(route[2], payload)
        self._send_json(200, {"stored": route[2]})


class SweepServer:
    """A bound frontend: the HTTP server plus its service, ready to run
    inline (:meth:`serve_forever`) or on a background thread
    (:meth:`start` — what the tests and the CLI's spool mode use)."""

    def __init__(self, service: SweepService, host: str,
                 port: int, quiet: bool = True) -> None:
        self.service = service
        handler = type("BoundHandler", (_Handler,),
                       {"service": service, "quiet": quiet})
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self.httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "SweepServer":
        self._thread = threading.Thread(target=self.httpd.serve_forever,
                                        name="repro-serve-http",
                                        daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self.httpd.serve_forever()

    def stop(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self.service.stop()


def serve(cache: Union[str, Path, CacheBackend], host: str = "127.0.0.1",
          port: int = 8765, workers: int = 2, retries: int = 1,
          point_timeout: Optional[float] = None,
          spool: Union[None, str, Path] = None,
          spool_interval: float = 1.0,
          quiet: bool = True) -> SweepServer:
    """Build a frontend bound to ``host:port`` (``port=0`` picks a free
    one).  The caller decides how to run it: ``serve_forever()`` (the
    CLI) or ``start()`` + ``stop()`` (tests, embedded use)."""
    service = SweepService(cache, workers=workers, retries=retries,
                           point_timeout=point_timeout, spool=spool,
                           spool_interval=spool_interval)
    return SweepServer(service, host, port, quiet=quiet)
