"""One HTTP exchange with a ``repro serve`` frontend, on a kept-alive
connection.

Both clients of the frontend, :class:`repro.api.client.ServeClient` and
:class:`repro.serve.backend.RemoteCacheBackend`, send every request
through a :class:`Connections`.  It speaks HTTP/1.1 on ``http.client``
(``HTTPSConnection`` for an ``https://`` URL) and keeps one open
connection per thread and per process: a thread never reads another's
response, and a process forked by ``SlotPool`` opens its own connection
instead of writing into its parent's socket.  A warm ``repro submit
--wait`` is three requests on one connection (submit, the events
stream, the result download); over ``urllib`` it was four connections.

Retries: a request sent on a *reused* connection that fails before any
response is read (``RemoteDisconnected``, ``ConnectionResetError``,
``BrokenPipeError``) is sent once more on a new connection.  That is
the frontend having closed the connection while it sat idle
(:data:`repro.serve.server.IDLE_TIMEOUT`).  Nothing else is retried.
``POST /v1/jobs`` is the one request that is not idempotent: if the
frontend had read it before the connection broke, the retry makes a
second job for the same document.  That job simulates nothing new: its
points coalesce in the scheduler with the first job's, or are cache
hits once those are done.

A response whose body is not read to its end (a dropped or timed-out
events stream, a failed read) discards its connection: the next
request on that thread opens a new one.

Unlike ``urllib``, ``http.client`` reads no ``http_proxy`` /
``https_proxy`` variable: the frontend's URL is always dialled directly.
"""

from __future__ import annotations

import http.client
import os
import threading
from typing import Optional, Tuple
from urllib.parse import urlsplit

# What a reused connection that the frontend closed while idle raises
# before a response is read (RemoteDisconnected is a ConnectionResetError).
STALE = (http.client.RemoteDisconnected, ConnectionResetError,
         BrokenPipeError)
# What a failed exchange raises: socket trouble or a malformed reply.
TRANSPORT_ERRORS = (OSError, http.client.HTTPException)


class Connections:
    """HTTP/1.1 requests to one base URL over kept-alive connections,
    one per thread and per process."""

    def __init__(self, base_url: str, timeout: float) -> None:
        parts = urlsplit(base_url)
        if parts.scheme not in ("http", "https") or not parts.netloc:
            raise ValueError(f"not an http(s) URL: {base_url!r}")
        self._connection_class = (http.client.HTTPSConnection
                                  if parts.scheme == "https"
                                  else http.client.HTTPConnection)
        self._netloc = parts.netloc
        self._prefix = parts.path.rstrip("/")
        self.timeout = timeout
        self._local = threading.local()

    def _connection(self) -> http.client.HTTPConnection:
        """This thread's connection.  A forked child finds its parent's
        in the thread-local copy and makes its own instead."""
        local = self._local
        if getattr(local, "pid", None) != os.getpid():
            local.connection = self._connection_class(self._netloc,
                                                      timeout=self.timeout)
            local.pid = os.getpid()
        return local.connection

    def discard(self) -> None:
        """Close this thread's connection; its next request opens a new
        one."""
        self._connection().close()

    def open(self, method: str, path: str,
             body: Optional[bytes] = None) -> http.client.HTTPResponse:
        """Send one request and return its response, body unread.  The
        caller reads the body to its end, or calls :meth:`discard`."""
        connection = self._connection()
        headers = {} if body is None else {"Content-Type":
                                           "application/json"}
        while True:
            reused = connection.sock is not None  # False once retried
            try:
                connection.request(method, self._prefix + path, body=body,
                                   headers=headers)
                return connection.getresponse()
            except STALE:
                connection.close()
                if not reused:
                    raise
            except BaseException:
                connection.close()
                raise

    def exchange(self, method: str, path: str,
                 body: Optional[bytes] = None) -> Tuple[int, bytes]:
        """One request and its whole response: ``(status, body)``."""
        response = self.open(method, path, body)
        try:
            return response.status, response.read()
        finally:
            if not response.isclosed():
                self.discard()
