"""Strict-validation suite for the checkpoint envelope.

The on-disk format (:mod:`repro.sim.checkpoint`) follows the
``core/serialize.py`` discipline: schema-versioned, every structural
problem fails loudly with an actionable message, never a silently wrong
restore.  Hypothesis drives the round-trip (arbitrary payloads and meta
survive write/read byte-exactly) and the corruption properties (any
truncation and any body bit-flip of a valid file is detected)."""

import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.checkpoint import (CHECKPOINT_SCHEMA, MAGIC, CheckpointError,
                                  CheckpointFormatError,
                                  read_checkpoint, read_checkpoint_header,
                                  restore_system, snapshot_system,
                                  write_checkpoint)
from repro.sim.engine import Clocked, Engine

# JSON-compatible payloads (the real payload is a system object graph;
# the envelope must not care).
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2**40, 2**40)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12)


def _valid_file(tmp_path, payload=("hello", 42), meta=None):
    path = tmp_path / "ok.ckpt"
    write_checkpoint(str(path), payload, meta=meta)
    return path


# ---------------------------------------------------------------------------
# Round trip
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(payload=_json_values,
       meta=st.dictionaries(st.text(max_size=10), _json_values, max_size=3))
def test_property_round_trip(payload, meta, tmp_path_factory):
    path = tmp_path_factory.mktemp("rt") / "x.ckpt"
    write_checkpoint(str(path), payload, meta=meta)
    got_meta, got_payload = read_checkpoint(str(path))
    assert got_meta == meta
    assert got_payload == payload
    # The header is readable without touching the pickle body.
    header = read_checkpoint_header(str(path))
    assert header["schema"] == CHECKPOINT_SCHEMA
    assert header["meta"] == meta


def test_no_leftover_temp_file(tmp_path):
    path = _valid_file(tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == [path.name], \
        "atomic write must leave no .tmp behind"


# ---------------------------------------------------------------------------
# Corruption is always loud
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_property_any_truncation_is_detected(data, tmp_path_factory):
    """Every strict prefix of a valid checkpoint fails to load with a
    CheckpointFormatError — an interrupted write can never restore."""
    tmp_path = tmp_path_factory.mktemp("trunc")
    path = _valid_file(tmp_path)
    blob = path.read_bytes()
    cut = data.draw(st.integers(0, len(blob) - 1))
    path.write_bytes(blob[:cut])
    with pytest.raises(CheckpointFormatError):
        read_checkpoint(str(path))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_property_any_body_corruption_is_detected(data, tmp_path_factory):
    """Flipping any byte of the body trips the CRC check."""
    tmp_path = tmp_path_factory.mktemp("flip")
    path = _valid_file(tmp_path)
    blob = bytearray(path.read_bytes())
    (header_len,) = struct.unpack(">I", blob[len(MAGIC):len(MAGIC) + 4])
    body_start = len(MAGIC) + 4 + header_len
    index = data.draw(st.integers(body_start, len(blob) - 1))
    blob[index] ^= data.draw(st.integers(1, 255))
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointFormatError, match="CRC mismatch"):
        read_checkpoint(str(path))


def test_trailing_garbage_is_detected(tmp_path):
    path = _valid_file(tmp_path)
    path.write_bytes(path.read_bytes() + b"\x00garbage")
    with pytest.raises(CheckpointFormatError, match="trailing garbage"):
        read_checkpoint(str(path))


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOT-A-CKPT" + b"\x00" * 40)
    with pytest.raises(CheckpointFormatError, match="bad magic"):
        read_checkpoint_header(str(path))


def test_header_not_json(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(MAGIC + struct.pack(">I", 4) + b"{{{{")
    with pytest.raises(CheckpointFormatError, match="not valid JSON"):
        read_checkpoint_header(str(path))


def test_header_not_an_object(tmp_path):
    path = tmp_path / "bad.ckpt"
    header = b"[1,2]"
    path.write_bytes(MAGIC + struct.pack(">I", len(header)) + header)
    with pytest.raises(CheckpointFormatError, match="JSON object"):
        read_checkpoint_header(str(path))


def _rewrite_header(path, mutate):
    """Load a valid file, apply *mutate* to its header dict, write back
    (with a consistent length prefix, so only the mutation is wrong)."""
    blob = path.read_bytes()
    (header_len,) = struct.unpack(">I", blob[len(MAGIC):len(MAGIC) + 4])
    header = json.loads(blob[len(MAGIC) + 4:len(MAGIC) + 4 + header_len])
    body = blob[len(MAGIC) + 4 + header_len:]
    mutate(header)
    header_bytes = json.dumps(header, sort_keys=True,
                              separators=(",", ":")).encode()
    path.write_bytes(MAGIC + struct.pack(">I", len(header_bytes))
                     + header_bytes + body)


def test_unknown_header_key_fails_with_upgrade_hint(tmp_path):
    path = _valid_file(tmp_path)
    _rewrite_header(path, lambda h: h.update(compression="zstd"))
    with pytest.raises(CheckpointFormatError,
                       match=r"unknown checkpoint header key.*compression"
                             r".*upgrade"):
        read_checkpoint(str(path))


def test_missing_header_key(tmp_path):
    path = _valid_file(tmp_path)
    _rewrite_header(path, lambda h: h.pop("body_crc32"))
    with pytest.raises(CheckpointFormatError,
                       match="missing key.*body_crc32"):
        read_checkpoint(str(path))


def test_wrong_schema_version(tmp_path):
    """A newer file, a schema-1 file (whose spec may be a class that no
    longer exists), a schema-2 file (whose notification network holds
    latch routers), a schema-3 file (whose routers hold one buffer
    object per slot), a schema-4 file (whose trackers may hold a
    vector not yet decoded), a schema-5 file (whose engine holds a
    watcher list and a stop flag), a schema-6 file (whose histograms
    hold a sample reservoir), a schema-7 file (whose memory
    controllers may hold a DRAM model and whose cache config holds the
    retry timeout) and a schema-8 file (whose histograms hold a
    minimum) are refused before the body is unpickled."""
    path = _valid_file(tmp_path)
    for schema in (CHECKPOINT_SCHEMA + 1, 1, 2, 3, 4, 5, 6, 7, 8):
        _rewrite_header(path, lambda h: h.update(schema=schema))
        with pytest.raises(CheckpointFormatError,
                           match=f"schema {schema}.*reads "
                                 f"schema {CHECKPOINT_SCHEMA}"):
            read_checkpoint(str(path))


def test_negative_body_len(tmp_path):
    path = _valid_file(tmp_path)
    _rewrite_header(path, lambda h: h.update(body_len=-1))
    with pytest.raises(CheckpointFormatError, match="invalid body_len"):
        read_checkpoint(str(path))


def test_unpicklable_body_is_loud(tmp_path):
    """A well-formed envelope around a non-pickle body still fails with
    the incompatible-version hint (CRC is made consistent)."""
    import zlib
    path = _valid_file(tmp_path)
    blob = path.read_bytes()
    (header_len,) = struct.unpack(">I", blob[len(MAGIC):len(MAGIC) + 4])
    body = b"\x80\x05not really a pickle"
    header = json.loads(blob[len(MAGIC) + 4:len(MAGIC) + 4 + header_len])
    header["body_len"] = len(body)
    header["body_crc32"] = zlib.crc32(body) & 0xFFFFFFFF
    header_bytes = json.dumps(header, sort_keys=True,
                              separators=(",", ":")).encode()
    path.write_bytes(MAGIC + struct.pack(">I", len(header_bytes))
                     + header_bytes + body)
    with pytest.raises(CheckpointFormatError,
                       match="failed to unpickle.*incompatible"):
        read_checkpoint(str(path))


# ---------------------------------------------------------------------------
# System-snapshot preconditions
# ---------------------------------------------------------------------------

class _Toy(Clocked):
    def __init__(self):
        self.count = 0

    def step(self, cycle):
        self.count += 1


class _FakeSystem:
    def __init__(self):
        self.engine = Engine()
        self.engine.register(_Toy())


def test_restore_rejects_non_system_payload(tmp_path):
    path = _valid_file(tmp_path, payload={"just": "data"})
    with pytest.raises(CheckpointFormatError,
                       match="not a system snapshot"):
        restore_system(str(path))


def test_snapshot_rejects_mid_tick(tmp_path):
    system = _FakeSystem()
    captured = {}

    class Grabber(Clocked):
        def step(self, cycle):
            try:
                snapshot_system(system, str(tmp_path / "x.ckpt"))
            except CheckpointError as exc:
                captured["error"] = str(exc)

    system.engine.register(Grabber())
    system.engine.run(1)
    assert "mid-tick" in captured["error"]


def test_extra_payload_cannot_shadow_reserved_keys(tmp_path):
    system = _FakeSystem()
    with pytest.raises(ValueError, match="reserved"):
        snapshot_system(system, str(tmp_path / "x.ckpt"),
                        extra={"system": "impostor"})
