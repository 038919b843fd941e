"""The remote cache backend: a ``CacheBackend`` over HTTP.

Talks to the ``/v1/cache/<fingerprint>`` endpoints of a running
``repro serve`` frontend, so sweep workers on hosts *without* the
shared cache filesystem still read and write one content-addressed
store.  The wire format is the payload JSON itself (what
:class:`~repro.experiments.cache.LocalDirBackend` stores on disk);
atomicity is inherited from the frontend, which writes through its
local backend's temp-file + ``os.replace`` path.

Errors are deliberately loud: a cache *miss* is a 404 and returns
``None``, but an unreachable or misbehaving frontend raises
:class:`CacheUnavailableError` — silently treating an outage as a miss
would quietly re-simulate the world (and silently drop ``put`` results).

Requests go through :class:`repro.serve.connection.Connections`: one
kept-alive HTTP/1.1 connection per thread and per process, so a sweep's
cache reads and writes do not open a connection each, and a worker
forked by ``SlotPool`` never shares its parent's socket.  A reused
connection that the frontend closed while idle is retried once on a new
one (``GET`` and ``PUT`` of an entry are idempotent); ``http_proxy`` is
not read.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from repro.experiments.cache import CacheBackend
from repro.serve.connection import TRANSPORT_ERRORS, Connections

DEFAULT_TIMEOUT = 10.0


class CacheUnavailableError(RuntimeError):
    """The remote cache frontend could not be reached or misbehaved."""


class RemoteCacheBackend(CacheBackend):
    """Content-addressed store served by a ``repro serve`` frontend."""

    def __init__(self, base_url: str,
                 timeout: float = DEFAULT_TIMEOUT) -> None:
        self.base_url = base_url.rstrip("/")
        self._http = Connections(self.base_url, timeout)

    @property
    def location(self) -> str:
        return self.base_url

    def _request(self, path: str, method: str = "GET",
                 data: Optional[bytes] = None) -> Optional[bytes]:
        """One HTTP exchange; 404 -> None, transport trouble -> loud."""
        try:
            status, body = self._http.exchange(method, path, data)
        except TRANSPORT_ERRORS as exc:
            raise CacheUnavailableError(
                f"cache frontend at {self.base_url} unreachable: "
                f"{exc}") from exc
        if status == 404:
            return None
        if status >= 300:
            raise CacheUnavailableError(
                f"cache frontend at {self.base_url} answered "
                f"{status} for {method} {self.base_url}{path}")
        return body

    def get(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        body = self._request(f"/v1/cache/{fingerprint}")
        if body is None:
            return None
        try:
            return json.loads(body)
        except ValueError as exc:
            raise CacheUnavailableError(
                f"cache frontend at {self.base_url} returned invalid "
                f"JSON for {fingerprint}: {exc}") from exc

    def put(self, fingerprint: str, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._request(f"/v1/cache/{fingerprint}", method="PUT", data=body)

    def entries(self) -> int:
        body = self._request("/v1/cache")
        if body is None:
            return 0
        try:
            return int(json.loads(body)["entries"])
        except (ValueError, KeyError, TypeError) as exc:
            raise CacheUnavailableError(
                f"cache frontend at {self.base_url} returned an invalid "
                f"cache summary: {exc}") from exc
