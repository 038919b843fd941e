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
GET         /v1/jobs/<id>/events           NDJSON progress stream, chunked;
                                           ends after the terminal ``done``
                                           / ``failed`` event, which carries
                                           the job's final ``summary``
GET         /v1/cache/<fingerprint>        shared cache read (404=miss;
                                           400 for a name outside
                                           ``[0-9A-Za-z_-]{1,128}``)
PUT         /v1/cache/<fingerprint>        shared cache write (a result
                                           payload; 400 for anything else)
GET         /v1/cache                      cache summary (entry count)
==========  =============================  ==================================

Connections are persistent (HTTP/1.1, RFC 9112 section 9.3): a client
sends request after request on one connection, and the events stream is
sent chunked so that its connection carries the next request too (to an
HTTP/1.0 request it is sent unframed and the connection closes).  A
response goes out as two sends, the headers and then the body, so the
handler sets TCP_NODELAY: with Nagle's algorithm on, the body of every
response on a kept-alive connection waited for the client's delayed ACK
of the headers (tens of milliseconds a request).  A connection that
sends no request for :data:`IDLE_TIMEOUT` seconds is closed, so a client
that went quiet does not hold a server thread.  A request refused
before its body was read (411, 413, a ``POST`` / ``PUT`` to an unknown
path) closes its connection, as the body would be read as the next
request, and :meth:`SweepServer.stop` closes every open connection.

A document reaches a host one way: ``POST /v1/jobs`` (``repro
submit``).  Hosts that share a filesystem point their frontends at the
same ``--cache-dir``.  Hosts without it pass a frontend's URL as their
cache (``--cache-dir http://frontend:8765``), which resolves to
:class:`~repro.serve.backend.RemoteCacheBackend` over the two cache
entry routes above.
"""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.api.document import DocumentError, experiment_from_dict
from repro.experiments.cache import (CacheBackend, CacheNameError,
                                     as_backend, is_result_payload)
from repro.serve.jobs import JobManager
from repro.serve.scheduler import PointScheduler

SERVER_NAME = "repro-serve/1"
# The largest request body (a document or a cache payload) the frontend
# reads; a longer declared Content-Length is refused unread.
MAX_BODY_BYTES = 8 * 1024 * 1024
# Seconds a kept-alive connection may wait for its next request (or a
# stalled request for its next byte) before the frontend closes it.
IDLE_TIMEOUT = 30.0


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
    """Everything behind the HTTP surface: the cache, scheduler and jobs."""

    def __init__(self, cache: Union[str, Path, CacheBackend],
                 workers: int = 2, retries: int = 1,
                 point_timeout: Optional[float] = None) -> None:
        self.backend = as_backend(cache)
        self.scheduler = PointScheduler(self.backend, workers=workers,
                                        retries=retries,
                                        point_timeout=point_timeout)
        self.jobs = JobManager(self.backend, self.scheduler)

    def submit_document(self, data: Dict[str, Any]):
        _refuse_trace_workloads(data, "<http>")
        return self.jobs.submit(experiment_from_dict(data, source="<http>"))


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
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
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
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        self._send(status, (json.dumps(payload, sort_keys=True) + "\n"
                            ).encode("utf-8"))

    def _error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _refuse_unread(self, status: int, message: str) -> None:
        """Answer a request whose body stays unread, and close: on a
        kept-alive connection that body would be read as the next
        request."""
        self.close_connection = True
        self._error(status, message)

    def _read_body(self, empty: str) -> Optional[bytes]:
        """The request body, or None once the request is answered: 411
        for a chunked body or a malformed length and 413 for a declared
        length over :data:`MAX_BODY_BYTES` (nothing is read, so the
        connection closes), 400 with *empty* for none."""
        declared = self.headers.get("Content-Length", "0")
        if "Transfer-Encoding" in self.headers or not declared.isdigit():
            self._refuse_unread(411, "a request body needs a plain "
                                     "Content-Length")
            return None
        length = int(declared)
        if length > MAX_BODY_BYTES:
            self._refuse_unread(413, f"request body of {length} bytes is "
                                     f"over the {MAX_BODY_BYTES}-byte limit")
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
        """NDJSON progress: replay the log, then follow until terminal.
        Chunked, so the connection outlives the stream."""
        chunked = self.request_version != "HTTP/1.0"
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        if chunked:
            self.send_header("Transfer-Encoding", "chunked")
        else:
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
            out = b"".join((json.dumps(event, sort_keys=True) + "\n"
                            ).encode("utf-8") for event in batch)
            if chunked and out:
                out = b"%x\r\n%s\r\n" % (len(out), out)
            if chunked and terminal:
                out += b"0\r\n\r\n"
            try:
                self.wfile.write(out)
            except OSError:
                self.close_connection = True
                return           # client went away
            if terminal:
                return

    def do_POST(self) -> None:           # noqa: N802
        route = self._route()
        if route != ("v1", "jobs"):
            self._refuse_unread(404, f"unknown path {self.path}")
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
            self._refuse_unread(404, f"unknown path {self.path}")
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


class _HTTPServer(ThreadingHTTPServer):
    """A ThreadingHTTPServer that knows its open connections, so that
    closing the server closes them too: a kept-alive connection would
    otherwise go on being answered by a stopped frontend."""

    daemon_threads = True

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self._open: set = set()
        self._open_lock = threading.Lock()

    def process_request(self, request, client_address) -> None:
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        super().server_close()
        with self._open_lock:
            for request in self._open:
                try:
                    request.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass                 # already gone


class SweepServer:
    """A bound frontend: the HTTP server plus its service, ready to run
    inline (:meth:`serve_forever`) or on a background thread
    (:meth:`start` — what the tests and embedded callers use)."""

    def __init__(self, service: SweepService, host: str,
                 port: int, quiet: bool = True) -> None:
        self.service = service
        handler = type("BoundHandler", (_Handler,),
                       {"service": service, "quiet": quiet,
                        "timeout": IDLE_TIMEOUT})
        self.httpd = _HTTPServer((host, port), handler)
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
        self.service.scheduler.stop()


def serve(cache: Union[str, Path, CacheBackend], host: str = "127.0.0.1",
          port: int = 8765, workers: int = 2, retries: int = 1,
          point_timeout: Optional[float] = None,
          quiet: bool = True) -> SweepServer:
    """Build a frontend bound to ``host:port`` (``port=0`` picks a free
    one).  The caller decides how to run it: ``serve_forever()`` (the
    CLI) or ``start()`` + ``stop()`` (tests, embedded use)."""
    service = SweepService(cache, workers=workers, retries=retries,
                           point_timeout=point_timeout)
    return SweepServer(service, host, port, quiet=quiet)
