"""``repro.serve`` — the distributed sweep service.

A job-queue frontend over the existing document/sweep/cache machinery:

* :mod:`repro.serve.server` — the stdlib ``ThreadingHTTPServer``
  frontend (``repro serve``): accepts experiment documents over HTTP
  (``POST /v1/jobs``, the one way a document reaches a host), exposes
  job status/result/progress endpoints, and serves the shared result
  cache over HTTP.
* :mod:`repro.serve.jobs` — job bookkeeping: expansion into
  fingerprinted points, submit-time cache short-circuiting, per-job
  hit/miss accounting, envelope assembly (byte-identical to
  ``repro run-file`` on the same document).
* :mod:`repro.serve.scheduler` — shards pending points across
  fork-once worker processes with timeout/retry/backoff, deduplicating
  identical fingerprints across concurrent jobs.
* :mod:`repro.serve.backend` — the remote :class:`CacheBackend` that
  lets workers on other hosts share one content-addressed store through
  the frontend's cache endpoints.
* :mod:`repro.serve.connection` — the one HTTP exchange both clients
  (``repro.api.client.ServeClient`` and the remote backend) make: HTTP/1.1
  on ``http.client``, one kept-alive connection per thread and process.

This ``__init__`` stays import-light (PEP 562 lazy exports), so nothing
in the simulator core pays for HTTP machinery at import time.
``repro.experiments.cache.as_backend`` imports
:mod:`repro.serve.backend` directly, and only for an ``http(s)://``
cache.
"""

from typing import TYPE_CHECKING

_EXPORTS = {
    "RemoteCacheBackend": "repro.serve.backend",
    "CacheUnavailableError": "repro.serve.backend",
    "Job": "repro.serve.jobs",
    "JobManager": "repro.serve.jobs",
    "PointScheduler": "repro.serve.scheduler",
    "SweepServer": "repro.serve.server",
    "SweepService": "repro.serve.server",
    "serve": "repro.serve.server",
}

__all__ = sorted(_EXPORTS)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.backend import (CacheUnavailableError,  # noqa: F401
                                     RemoteCacheBackend)
    from repro.serve.jobs import Job, JobManager  # noqa: F401
    from repro.serve.scheduler import PointScheduler  # noqa: F401
    from repro.serve.server import (SweepServer, SweepService,  # noqa: F401
                                    serve)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    import importlib
    return getattr(importlib.import_module(module_name), name)
