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
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from typing import Any, Dict, Optional

from repro.experiments.cache import CacheBackend

DEFAULT_TIMEOUT = 10.0


class CacheUnavailableError(RuntimeError):
    """The remote cache frontend could not be reached or misbehaved."""


class RemoteCacheBackend(CacheBackend):
    """Content-addressed store served by a ``repro serve`` frontend."""

    def __init__(self, base_url: str,
                 timeout: float = DEFAULT_TIMEOUT) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    @property
    def location(self) -> str:
        return self.base_url

    def _url(self, fingerprint: str = "") -> str:
        if fingerprint:
            return f"{self.base_url}/v1/cache/{fingerprint}"
        return f"{self.base_url}/v1/cache"

    def _request(self, url: str, method: str = "GET",
                 data: Optional[bytes] = None) -> Optional[bytes]:
        """One HTTP exchange; 404 -> None, transport trouble -> loud."""
        request = urllib.request.Request(url, data=data, method=method)
        if data is not None:
            request.add_header("Content-Type", "application/json")
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout) as response:
                return response.read()
        except urllib.error.HTTPError as exc:
            if exc.code == 404:
                return None
            raise CacheUnavailableError(
                f"cache frontend at {self.base_url} answered "
                f"{exc.code} for {method} {url}") from exc
        except OSError as exc:
            raise CacheUnavailableError(
                f"cache frontend at {self.base_url} unreachable: "
                f"{exc}") from exc

    def get(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        body = self._request(self._url(fingerprint))
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
        self._request(self._url(fingerprint), method="PUT", data=body)

    def entries(self) -> int:
        body = self._request(self._url())
        if body is None:
            return 0
        try:
            return int(json.loads(body)["entries"])
        except (ValueError, KeyError, TypeError) as exc:
            raise CacheUnavailableError(
                f"cache frontend at {self.base_url} returned an invalid "
                f"cache summary: {exc}") from exc
