"""Client for the ``repro serve`` sweep service.

:class:`ServeClient` is the client the CLI (``repro submit`` / ``repro
jobs``) is built on.  An ``asyncio`` caller runs it in a worker thread:
``await asyncio.to_thread(client.run, path)``.

The result a client downloads is the canonical envelope — the exact
bytes ``repro run-file --output`` would have written for the same
document — so a client-side ``--output`` file is interchangeable with a
locally produced one.

Requests go through :class:`repro.serve.connection.Connections`: HTTP/1.1
on one kept-alive connection per thread (and per process), so a warm
:meth:`ServeClient.run` is three requests on one connection: the
submit, the events stream (whose terminal event carries the job's final
summary) and the result download.  A reused connection that the
frontend closed while idle is retried once on a new one; a retried
``POST /v1/jobs`` can at worst make a second job for the same document,
whose points coalesce in the scheduler with the first's.  The
``http_proxy`` variable is not read: the URL is dialled directly.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional

from repro.serve.connection import TRANSPORT_ERRORS, Connections

DEFAULT_TIMEOUT = 30.0


class ServeError(RuntimeError):
    """The sweep service rejected a request or could not be reached."""


class ServeClient:
    """Synchronous HTTP client for one ``repro serve`` frontend."""

    def __init__(self, base_url: str,
                 timeout: float = DEFAULT_TIMEOUT) -> None:
        self.base_url = base_url.rstrip("/")
        self._http = Connections(self.base_url, timeout)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def _check(self, method: str, path: str, status: int,
               body: bytes) -> None:
        """Raise the frontend's refusal of a request as a ServeError."""
        if status < 300:
            return
        detail = ""
        try:
            detail = json.loads(body).get("error", "")
        except Exception:
            pass
        raise ServeError(
            f"{method} {self.base_url}{path} failed: HTTP {status}"
            + (f" — {detail}" if detail else ""))

    def _request(self, path: str, method: str = "GET",
                 data: Optional[bytes] = None) -> bytes:
        try:
            status, body = self._http.exchange(method, path, data)
        except TRANSPORT_ERRORS as exc:
            raise ServeError(f"cannot reach sweep service at "
                             f"{self.base_url}: {exc}") from exc
        self._check(method, path, status, body)
        return body

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
        """Follow a job's NDJSON progress stream until it ends.  The
        terminal event (``done`` / ``failed``) carries the job's final
        ``summary``."""
        path = f"/v1/jobs/{job_id}/events"
        try:
            response = self._http.open("GET", path)
        except TRANSPORT_ERRORS as exc:
            raise ServeError(f"cannot stream events for {job_id}: "
                             f"{exc}") from exc
        try:
            if response.status >= 300:
                self._check("GET", path, response.status, response.read())
            for line in response:
                line = line.strip()
                if line:
                    event = json.loads(line)
                    if "summary" in event:
                        response.read()        # the stream's closing chunk
                    yield event
        finally:
            if not response.isclosed():
                # Left mid-stream (dropped, timed out, abandoned): the
                # connection cannot carry another request.
                self._http.discard()

    def wait(self, job_id: str, timeout: Optional[float] = None,
             on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
             poll_interval: float = 0.5) -> Dict[str, Any]:
        """Block until *job_id* is terminal; returns its final summary.

        Follows the event stream, whose terminal event carries the
        summary; polls the job's status when the stream ends without one
        (a dropped connection, an older frontend).  *timeout* bounds the
        total wait."""
        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            for event in self.events(job_id):
                if on_event is not None:
                    on_event(event)
                if "summary" in event:
                    return event["summary"]
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
