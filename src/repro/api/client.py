"""Client for the ``repro serve`` sweep service.

:class:`ServeClient` is the synchronous client the CLI (``repro
submit`` / ``repro jobs``) is built on; :class:`AsyncServeClient` wraps
the same operations for ``asyncio`` callers (each call runs in a worker
thread via ``asyncio.to_thread`` — the stdlib-only way to be async-
capable without an HTTP dependency).

The result a client downloads is the canonical envelope — the exact
bytes ``repro run-file --output`` would have written for the same
document — so a client-side ``--output`` file is interchangeable with a
locally produced one.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional

DEFAULT_TIMEOUT = 30.0


class ServeError(RuntimeError):
    """The sweep service rejected a request or could not be reached."""


class ServeClient:
    """Synchronous HTTP client for one ``repro serve`` frontend."""

    def __init__(self, base_url: str,
                 timeout: float = DEFAULT_TIMEOUT) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def _request(self, path: str, method: str = "GET",
                 data: Optional[bytes] = None,
                 timeout: Optional[float] = None) -> bytes:
        url = f"{self.base_url}{path}"
        request = urllib.request.Request(url, data=data, method=method)
        if data is not None:
            request.add_header("Content-Type", "application/json")
        try:
            with urllib.request.urlopen(
                    request, timeout=timeout or self.timeout) as response:
                return response.read()
        except urllib.error.HTTPError as exc:
            detail = ""
            try:
                detail = json.loads(exc.read()).get("error", "")
            except Exception:
                pass
            raise ServeError(
                f"{method} {url} failed: HTTP {exc.code}"
                + (f" — {detail}" if detail else "")) from exc
        except OSError as exc:
            raise ServeError(f"cannot reach sweep service at "
                             f"{self.base_url}: {exc}") from exc

    def _json(self, path: str, method: str = "GET",
              data: Optional[bytes] = None) -> Dict[str, Any]:
        return json.loads(self._request(path, method=method, data=data))

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return self._json("/v1/health")

    def submit_document(self, document: Mapping[str, Any]
                        ) -> Dict[str, Any]:
        """POST a document dict; returns the job summary (``"job"`` key
        is the id to wait on)."""
        body = json.dumps(dict(document)).encode("utf-8")
        return self._json("/v1/jobs", method="POST", data=body)

    def submit_path(self, path) -> Dict[str, Any]:
        """Submit a document file (validated locally first, so a bad
        document fails with the full local error before any HTTP)."""
        from repro.api.document import document_to_dict, experiment_from_dict
        data = document_to_dict(path)
        experiment_from_dict(data, source=str(path))
        return self.submit_document(data)

    def jobs(self) -> List[Dict[str, Any]]:
        return self._json("/v1/jobs")["jobs"]

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._json(f"/v1/jobs/{job_id}")

    def result_bytes(self, job_id: str) -> bytes:
        """The finished job's canonical results envelope."""
        return self._request(f"/v1/jobs/{job_id}/result")

    def events(self, job_id: str) -> Iterator[Dict[str, Any]]:
        """Follow a job's NDJSON progress stream until it closes."""
        url = f"{self.base_url}/v1/jobs/{job_id}/events"
        try:
            response = urllib.request.urlopen(url, timeout=self.timeout)
        except (urllib.error.HTTPError, OSError) as exc:
            raise ServeError(f"cannot stream events for {job_id}: "
                             f"{exc}") from exc
        with response:
            for line in response:
                line = line.strip()
                if line:
                    yield json.loads(line)

    def wait(self, job_id: str, timeout: Optional[float] = None,
             on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
             poll_interval: float = 0.5) -> Dict[str, Any]:
        """Block until *job_id* is terminal; returns its final summary.

        Follows the event stream when possible and falls back to status
        polling (e.g. after a dropped connection); *timeout* bounds the
        total wait."""
        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            for event in self.events(job_id):
                if on_event is not None:
                    on_event(event)
                if deadline is not None and time.monotonic() > deadline:
                    raise ServeError(f"timed out waiting for {job_id}")
        except ServeError:
            raise
        except Exception:
            pass                 # stream dropped: fall back to polling
        while True:
            summary = self.job(job_id)
            if summary["state"] != "running":
                return summary
            if deadline is not None and time.monotonic() > deadline:
                raise ServeError(f"timed out waiting for {job_id}")
            time.sleep(poll_interval)

    def run(self, document, timeout: Optional[float] = None,
            on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
            ) -> "SubmitOutcome":
        """Submit (path or dict), wait, download: the one-call client."""
        if isinstance(document, Mapping):
            submitted = self.submit_document(document)
        else:
            submitted = self.submit_path(document)
        job_id = submitted["job"]
        summary = self.wait(job_id, timeout=timeout, on_event=on_event)
        if summary["state"] != "done":
            raise ServeError(f"job {job_id} failed: "
                             f"{summary.get('error') or summary}")
        return SubmitOutcome(summary=summary,
                             envelope=self.result_bytes(job_id))


class SubmitOutcome:
    """A finished submission: final summary + canonical envelope."""

    def __init__(self, summary: Dict[str, Any], envelope: bytes) -> None:
        self.summary = summary
        self.envelope = envelope

    @property
    def payload(self) -> Dict[str, Any]:
        return json.loads(self.envelope)


class AsyncServeClient:
    """``asyncio`` façade over :class:`ServeClient` (thread-offloaded).

    Usage::

        client = AsyncServeClient("http://127.0.0.1:8765")
        outcome = await client.run("examples/experiments/fig7_smoke.toml")
    """

    def __init__(self, base_url: str,
                 timeout: float = DEFAULT_TIMEOUT) -> None:
        self._sync = ServeClient(base_url, timeout=timeout)

    async def _call(self, fn, *args, **kwargs):
        import asyncio
        return await asyncio.to_thread(fn, *args, **kwargs)

    async def health(self):
        return await self._call(self._sync.health)

    async def submit_document(self, document: Mapping[str, Any]):
        return await self._call(self._sync.submit_document, document)

    async def submit_path(self, path):
        return await self._call(self._sync.submit_path, path)

    async def jobs(self):
        return await self._call(self._sync.jobs)

    async def job(self, job_id: str):
        return await self._call(self._sync.job, job_id)

    async def result_bytes(self, job_id: str):
        return await self._call(self._sync.result_bytes, job_id)

    async def wait(self, job_id: str, timeout: Optional[float] = None,
                   on_event=None):
        return await self._call(self._sync.wait, job_id,
                                timeout=timeout, on_event=on_event)

    async def run(self, document, timeout: Optional[float] = None,
                  on_event=None):
        return await self._call(self._sync.run, document,
                                timeout=timeout, on_event=on_event)

    async def events(self, job_id: str):
        """Async iterator over the NDJSON progress stream."""
        import asyncio
        iterator = self._sync.events(job_id)
        sentinel = object()
        while True:
            event = await asyncio.to_thread(next, iterator, sentinel)
            if event is sentinel:
                return
            yield event
