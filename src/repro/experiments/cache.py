"""On-disk result cache for experiment runs, behind a backend protocol.

Storage is split from bookkeeping:

* :class:`CacheBackend` is the minimal content-addressed store protocol
  (``get``/``put``/``contains`` by fingerprint).  Two implementations
  exist: :class:`LocalDirBackend` (the original one-JSON-file-per-
  fingerprint directory layout below) and the remote HTTP backend in
  :mod:`repro.serve.backend`, which talks to the cache endpoints of a
  running ``repro serve`` frontend so workers on other hosts share one
  store.
* :class:`ResultCache` wraps any backend with hit/miss accounting and
  is what the sweep runner and every CLI entry point handle.

Local results live one JSON file per fingerprint under a two-level
fan-out (``<dir>/ab/abcdef....json``) so warm directories stay listable.
The fingerprint already encodes the :func:`code_version` of the
simulator source, so editing any file under ``src/repro`` naturally
invalidates every cached result — no manual cache busting required.

Local writes are atomic (temp file + ``os.replace``), which makes the
cache safe to share between parallel sweep workers, concurrent pytest/
CLI invocations, and multiple serve hosts pointed at one directory:
concurrent ``put`` calls of the same fingerprint race benignly — the
last writer wins and a reader always sees a complete entry, never a
torn one (``tests/test_serve_backend.py`` stress-proves this across
processes).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.core.api import PAYLOAD_KEYS, PAYLOAD_SCHEMA

_CODE_VERSION: Optional[str] = None

# Entry names become file names below the cache directory, and they
# arrive from the network (``PUT /v1/cache/<name>``).
_ENTRY_NAME = re.compile(r"[0-9A-Za-z_-]{1,128}")


class CacheNameError(ValueError):
    """A cache entry name that is not a plain token (it could address a
    file outside the store)."""


def code_version() -> str:
    """SHA-256 over every ``.py`` file of the installed ``repro`` package.

    Memoized per process: the sweep layer calls this once per fingerprint.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        import repro
        root = Path(repro.__file__).parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _CODE_VERSION = digest.hexdigest()
    return _CODE_VERSION


class CacheBackend:
    """Protocol for a content-addressed payload store.

    Implementations map a fingerprint (hex digest string) to a JSON
    payload dict.  ``get`` returns None on a miss, ``put`` must be
    atomic (a concurrent reader sees the old entry, the new entry, or a
    miss — never a torn file), ``contains`` must not mutate anything.
    ``location`` is a human-readable description for log lines.
    """

    location: str = "<abstract>"

    def get(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        raise NotImplementedError

    def put(self, fingerprint: str, payload: Dict[str, Any]) -> None:
        raise NotImplementedError

    def contains(self, fingerprint: str) -> bool:
        raise NotImplementedError

    def entries(self) -> int:
        raise NotImplementedError


class LocalDirBackend(CacheBackend):
    """The original directory layout: ``<dir>/ab/abcdef....json``."""

    def __init__(self, directory: Union[str, Path]) -> None:
        # expanduser: "~/..." arrives unexpanded from .env files, CI
        # yaml, or REPRO_CACHE_DIR set without shell interpolation, and
        # would otherwise create a literal "./~" directory.
        self.directory = Path(directory).expanduser()

    @property
    def location(self) -> str:
        return str(self.directory)

    def _path(self, fingerprint: str) -> Path:
        if not _ENTRY_NAME.fullmatch(fingerprint):
            raise CacheNameError(
                f"invalid cache entry name {fingerprint!r} (expected "
                f"1-128 characters of [0-9A-Za-z_-])")
        return self.directory / fingerprint[:2] / f"{fingerprint}.json"

    def get(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """The stored payload for *fingerprint*, or None on a miss.

        A corrupt or truncated file (e.g. an interrupted legacy writer)
        counts as a miss; the next :meth:`put` repairs it.
        """
        path = self._path(fingerprint)
        try:
            with path.open("r", encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None

    def put(self, fingerprint: str, payload: Dict[str, Any]) -> None:
        path = self._path(fingerprint)
        # Encoded before the temp file exists: a payload that cannot be
        # encoded leaves nothing behind.
        data = json.dumps(payload, sort_keys=True)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def contains(self, fingerprint: str) -> bool:
        return self._path(fingerprint).is_file()

    def entries(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*/*.json"))


def is_result_payload(stored: Any) -> bool:
    """Is *stored* shaped like a result payload: a dict holding every key
    ``RunResult.payload()`` writes, with this ``PAYLOAD_SCHEMA``?
    (``PUT /v1/cache/<name>`` refuses anything else.)"""
    return (isinstance(stored, dict) and stored.keys() >= PAYLOAD_KEYS
            and stored["schema"] == PAYLOAD_SCHEMA)


def result_payload(stored: Any, fingerprint: str) -> Optional[Dict[str, Any]]:
    """*stored* if it is the result payload of *fingerprint*, else None.

    A backend stores whatever it was handed, so before a stored value
    becomes a result it must be a result payload
    (:func:`is_result_payload`) carrying the ``fingerprint`` it was read
    under.
    """
    if is_result_payload(stored) and stored["fingerprint"] == fingerprint:
        return stored
    return None


class ResultCache:
    """Hit/miss-accounted view over a :class:`CacheBackend` of result
    payloads (:meth:`repro.core.api.RunResult.payload`).

    Constructed from a directory path (the common case: a
    :class:`LocalDirBackend` is created) or from any backend instance
    (``repro serve`` workers pass the remote HTTP backend here).
    """

    def __init__(self, store: Union[str, Path, CacheBackend]) -> None:
        if isinstance(store, CacheBackend):
            self.backend = store
        else:
            self.backend = LocalDirBackend(store)
        self.hits = 0
        self.misses = 0

    def get(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """The result payload stored under *fingerprint*, or None (see
        :func:`result_payload`: a stored value of the wrong shape is a
        miss, which the next :meth:`put` repairs)."""
        payload = result_payload(self.backend.get(fingerprint), fingerprint)
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, fingerprint: str, payload: Dict[str, Any]) -> None:
        self.backend.put(fingerprint, payload)

    def contains(self, fingerprint: str) -> bool:
        """Presence probe; deliberately not counted as a hit or a miss
        (the serve scheduler polls it, which must not skew job stats)."""
        return self.backend.contains(fingerprint)

    def entries(self) -> int:
        """Number of results currently stored.

        Deliberately not ``__len__``: that would make an *empty* cache
        falsy, and ``if cache`` guards are how callers test for an
        *absent* cache.
        """
        return self.backend.entries()

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "entries": self.entries()}


def as_backend(store: Union[str, Path, CacheBackend]) -> CacheBackend:
    """Coerce a store description into a backend: an ``http(s)://`` URL
    becomes the remote backend of a ``repro serve`` frontend, anything
    else a local directory."""
    if isinstance(store, CacheBackend):
        return store
    if isinstance(store, str) and store.startswith(("http://", "https://")):
        from repro.serve.backend import RemoteCacheBackend
        return RemoteCacheBackend(store)
    return LocalDirBackend(store)


def as_cache(cache: Union[None, bool, str, Path, CacheBackend, ResultCache]
             ) -> Optional[ResultCache]:
    """Coerce a user-facing cache argument into a :class:`ResultCache`.

    ``None``/``False`` disable caching; a string/path becomes a cache
    rooted there (an ``http(s)://`` string becomes a remote cache
    against a serve frontend); an existing :class:`ResultCache` passes
    through.
    """
    if cache is None or cache is False:
        return None
    if cache is True:
        raise ValueError("cache=True is ambiguous: pass a directory path "
                         "or a ResultCache")
    if isinstance(cache, ResultCache):
        return cache
    return ResultCache(as_backend(cache))
