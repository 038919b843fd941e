"""Versioned on-disk checkpoints of whole simulated systems.

A checkpoint captures everything ``Engine.run`` needs to resume
bit-identically: every :class:`~repro.sim.engine.Clocked` component (via
the ``state_dict`` protocol backing ``__getstate__``), channel contents
and in-flight messages, scheduled callbacks, the engine's sleep cells,
the :class:`~repro.sim.stats.StatsRegistry` (meta included), and the process-global packet/request id allocators.

The body is a single pickle of the system object graph — one pickle so
shared references (a request sitting in two queues, a sleep cell shared
between the engine and its component) keep their identity on restore.

What is deliberately **not** captured (the mode-invariance rule): the
quiescence mode.  Sleep/wake is a property of the *running process*
(:func:`~repro.sim.engine.forced_quiescence`), and the kernel guarantees
both modes compute identical results, so a snapshot taken under either
mode restores correctly under either —
:meth:`Engine.rebind_quiescence` re-resolves it on load.

On-disk format (schema/versioning discipline of ``core/serialize.py``):

    MAGIC | 4-byte big-endian header length | JSON header | pickle body

The header carries exactly ``schema`` / ``meta`` / ``body_len`` /
``body_crc32``.  Unknown header keys, a wrong schema version, a
truncated body, or a CRC mismatch all raise
:class:`CheckpointFormatError` with an actionable message — never a
silently wrong restore.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import struct
import zlib
from typing import Any, Dict, Optional, Tuple

from repro.coherence.messages import request_id_state, set_request_id_state
from repro.noc.packet import packet_id_state, set_packet_id_state

# Version of the checkpoint wire format.  Bump on incompatible changes
# to the envelope or to what the body must contain.
# 2: a snapshot's spec is always a SystemSpec (schema 1 could hold the
# retired benchmark-run spec class, which no longer unpickles).
# 3: the notification network is one OR per window (no per-node latch
# routers to unpickle; an announced-node set instead).
# 4: a router's slots are flat lists (no per-slot objects), the
# reserved-VC waiters sit on each OutPort, which reads the far NIC's
# published ordering state instead of calling it.
# 5: a tracker's expansion is empty only with its queue (schema 4 could
# hold a queued vector not yet decoded, and no published ESID with the
# reserved VC off); the timestamp NIC has no step-cycle copy.
# 6: the engine has no watcher list and no stop flag; a trace core
# keeps its trace length; a system keeps no list of unfinished cores.
# 7: a histogram keeps count, total and extrema only (no sample
# reservoir, no random generator).
# 8: a memory controller has no DRAM model, an L2 keeps its own retry
# timeout (the cache config has none), and a directory system's home
# map is an AddressInterleavedMap.
# 9: a histogram keeps no minimum.
# 10: a router has no credit-return wheel (its credits land at the
# clock edge), a trace core keeps the open AHB-cap stretch, and the
# engine keeps a list of credit landings.
CHECKPOINT_SCHEMA = 10

MAGIC = b"REPRO-CKPT\x00"
_HEADER_KEYS = {"schema", "meta", "body_len", "body_crc32"}


class CheckpointError(RuntimeError):
    """A system cannot be snapshotted in its current state."""


class CheckpointFormatError(ValueError):
    """A checkpoint file failed strict validation (bad magic, unknown
    header key, unsupported schema version, truncation, corruption)."""


# ---------------------------------------------------------------------------
# Envelope
# ---------------------------------------------------------------------------

def write_checkpoint(path: str, payload: Any,
                     meta: Optional[Dict[str, Any]] = None) -> None:
    """Pickle *payload* into a versioned envelope at *path*.

    *meta* is display-only JSON (kind, fingerprint, cycle, …) readable
    without unpickling the body.

    The write is atomic (temp file + rename), so a run preempted
    mid-snapshot never clobbers the previous good checkpoint at the
    same path."""
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    header = {
        "schema": CHECKPOINT_SCHEMA,
        "meta": dict(meta or {}),
        "body_len": len(body),
        "body_crc32": zlib.crc32(body) & 0xFFFFFFFF,
    }
    header_bytes = json.dumps(header, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack(">I", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(body)
    os.replace(tmp, path)


def read_checkpoint_header(path: str) -> Dict[str, Any]:
    """Validate the envelope of *path* and return its JSON header
    (without unpickling the body)."""
    with open(path, "rb") as fh:
        header, _body_offset = _read_header(fh, path)
    return header


def read_checkpoint(path: str) -> Tuple[Dict[str, Any], Any]:
    """Validate and load *path*; returns ``(meta, payload)``."""
    with open(path, "rb") as fh:
        header, _offset = _read_header(fh, path)
        body = fh.read(header["body_len"] + 1)
    if len(body) < header["body_len"]:
        raise CheckpointFormatError(
            f"{path}: truncated checkpoint body — header promises "
            f"{header['body_len']} bytes, file holds {len(body)}; the "
            f"snapshot was interrupted mid-write, re-run from an earlier "
            f"checkpoint")
    if len(body) > header["body_len"]:
        raise CheckpointFormatError(
            f"{path}: {len(body) - header['body_len']}+ bytes of trailing "
            f"garbage after the checkpoint body")
    crc = zlib.crc32(body) & 0xFFFFFFFF
    if crc != header["body_crc32"]:
        raise CheckpointFormatError(
            f"{path}: checkpoint body CRC mismatch (stored "
            f"{header['body_crc32']:#010x}, computed {crc:#010x}) — the "
            f"file is corrupt")
    try:
        payload = pickle.loads(body)
    except Exception as exc:
        raise CheckpointFormatError(
            f"{path}: checkpoint body failed to unpickle ({exc}); it may "
            f"have been written by an incompatible code version") from exc
    return header["meta"], payload


def _read_header(fh: io.BufferedReader, path: str) -> Tuple[Dict[str, Any], int]:
    magic = fh.read(len(MAGIC))
    if magic != MAGIC:
        raise CheckpointFormatError(
            f"{path}: not a repro checkpoint (bad magic)")
    raw_len = fh.read(4)
    if len(raw_len) < 4:
        raise CheckpointFormatError(
            f"{path}: truncated checkpoint (header length missing)")
    (header_len,) = struct.unpack(">I", raw_len)
    header_bytes = fh.read(header_len)
    if len(header_bytes) < header_len:
        raise CheckpointFormatError(
            f"{path}: truncated checkpoint header")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointFormatError(
            f"{path}: checkpoint header is not valid JSON ({exc})") from exc
    if not isinstance(header, dict):
        raise CheckpointFormatError(
            f"{path}: checkpoint header must be a JSON object")
    unknown = set(header) - _HEADER_KEYS
    if unknown:
        raise CheckpointFormatError(
            f"{path}: unknown checkpoint header key(s) "
            f"{sorted(unknown)} — this file was likely written by a newer "
            f"tool; upgrade to read it")
    missing = _HEADER_KEYS - set(header)
    if missing:
        raise CheckpointFormatError(
            f"{path}: checkpoint header missing key(s) {sorted(missing)}")
    if header["schema"] != CHECKPOINT_SCHEMA:
        raise CheckpointFormatError(
            f"{path}: checkpoint schema {header['schema']!r} unsupported — "
            f"this tool reads schema {CHECKPOINT_SCHEMA}")
    if not isinstance(header["body_len"], int) or header["body_len"] < 0:
        raise CheckpointFormatError(
            f"{path}: invalid body_len {header['body_len']!r}")
    return header, len(MAGIC) + 4 + header_len


# ---------------------------------------------------------------------------
# Whole-system snapshots
# ---------------------------------------------------------------------------

def _check_snapshotable(engine) -> None:
    if engine._ticking:
        raise CheckpointError(
            "cannot snapshot mid-tick; snapshot between Engine.run calls")
    if engine._pending_sleeps:
        raise CheckpointError(
            "cannot snapshot with pending sleep declarations; snapshot "
            "between Engine.run calls")


_RESERVED_PAYLOAD_KEYS = ("system", "packet_ids", "request_ids")


def snapshot_system(system, path: str,
                    meta: Optional[Dict[str, Any]] = None,
                    extra: Optional[Dict[str, Any]] = None) -> None:
    """Snapshot *system* (anything with an ``engine`` attribute wired by
    ``BaseSystem``-style assembly) to *path*.

    Valid only between ``Engine.run`` calls.  The payload includes the
    process-global packet/request id allocators so ids allocated after a
    restore continue the pre-snapshot sequence.  *extra* rides in the
    pickled payload next to the system (the execution layer stores the
    spec being run there, so a fresh process can resume and collect)."""
    _check_snapshotable(system.engine)
    payload = {
        "system": system,
        "packet_ids": packet_id_state(),
        "request_ids": request_id_state(),
    }
    for key in extra or {}:
        if key in _RESERVED_PAYLOAD_KEYS:
            raise ValueError(f"extra payload key {key!r} is reserved")
    payload.update(extra or {})
    merged = {"cycle": system.engine.cycle}
    merged.update(meta or {})
    write_checkpoint(path, payload, meta=merged)


def restore_payload(path: str) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Load a snapshot written by :func:`snapshot_system`; returns
    ``(meta, payload)`` with the whole payload dict (system plus any
    ``extra`` entries stored alongside it).

    Restores the global id allocators and re-resolves the quiescence
    mode for *this* process (the mode never travels in a checkpoint)."""
    meta, payload = read_checkpoint(path)
    if not isinstance(payload, dict) or "system" not in payload:
        raise CheckpointFormatError(
            f"{path}: checkpoint body is not a system snapshot")
    set_packet_id_state(payload["packet_ids"])
    set_request_id_state(payload["request_ids"])
    # Engine.__setstate__ already rebinds, but be explicit: the mode
    # belongs to the restoring process.
    payload["system"].engine.rebind_quiescence()
    return meta, payload


def restore_system(path: str):
    """Load a system snapshotted by :func:`snapshot_system`; returns
    ``(meta, system)``."""
    meta, payload = restore_payload(path)
    return meta, payload["system"]
