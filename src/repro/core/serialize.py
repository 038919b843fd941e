"""Strict, versioned serialization for the config dataclasses.

Every configuration dataclass in the simulator (``NocConfig``,
``NotificationConfig``, ``CacheConfig``, ``MemoryConfig``, ``CoreConfig``,
``DirectoryConfig`` and the aggregating ``ChipConfig``)
exposes ``to_dict()`` / ``from_dict()`` built on the two helpers here.
The contract, which ``repro.api`` v1 documents rely on:

* **Canonical form.**  ``to_dict()`` emits exactly the dataclass fields
  (nested config dataclasses recurse into plain dicts) plus a top-level
  ``"schema"`` version tag.  Stripped of the tag, the dict is identical
  to :func:`dataclasses.asdict` — the form the experiment fingerprints
  hash — so ``from_dict(to_dict(c))`` is *fingerprint-preserving*: a
  round-tripped config produces the same :meth:`SystemSpec.fingerprint`
  and therefore hits the result cache of the code-built equivalent.
* **Strict validation.**  ``from_dict()`` rejects unknown keys, missing
  keys without a dataclass default, wrong value types, and unsupported
  schema versions — a typo in an experiment document fails loudly at
  load time, never as a silently-default simulation.
* **Versioning.**  ``CONFIG_SCHEMA`` bumps when a field changes meaning
  (not when fields are merely added with defaults: old documents that
  omit a new field still load; nor when a field that changed nothing is
  removed: a document naming it fails as an unknown key).  ``from_dict`` accepts dicts without a
  ``"schema"`` key — nested sub-config dicts and ``asdict()`` output —
  and treats them as the current version.

Type checking is structural over the annotations actually used by the
config dataclasses: ``bool``/``int``/``float``/``str``, ``Optional[X]``,
``List[int]`` and nested dataclasses.  A nested config is a table in the
dict form, never null: ``{"noc": None}`` fails like any other non-table
value.
"""

from __future__ import annotations

import dataclasses
import typing
from typing import Any, Dict, Mapping, Optional, Type, TypeVar

# Version of the config wire format.  Bump on incompatible field-meaning
# changes; additions with defaults are backwards-compatible and keep the
# version.
CONFIG_SCHEMA = 1

T = TypeVar("T")


class ConfigFormatError(ValueError):
    """A config dict failed strict validation (unknown key, bad type,
    unsupported schema version)."""


def _encode(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _encode(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    return value


def to_dict(obj: Any, schema: bool = True) -> Dict[str, Any]:
    """Canonical dict form of a config dataclass.

    With ``schema=True`` (the default for the public ``to_dict``
    methods) the result carries a ``"schema": CONFIG_SCHEMA`` tag;
    nested dataclasses never carry one, so the tag-stripped dict equals
    :func:`dataclasses.asdict`.
    """
    if not dataclasses.is_dataclass(obj) or isinstance(obj, type):
        raise TypeError(f"expected a dataclass instance, got {obj!r}")
    out: Dict[str, Any] = {"schema": CONFIG_SCHEMA} if schema else {}
    for f in dataclasses.fields(obj):
        out[f.name] = _encode(getattr(obj, f.name))
    return out


def _check_type(cls: type, name: str, annotation: Any, value: Any,
                what: str) -> Any:
    """Validate (and possibly convert) one field value."""
    origin = typing.get_origin(annotation)
    args = typing.get_args(annotation)

    # Optional[X] / Union[..., None]
    if origin is typing.Union:
        if value is None:
            if type(None) in args:
                return None
            raise ConfigFormatError(f"{what}.{name} must not be null")
        inner = [a for a in args if a is not type(None)]
        if len(inner) == 1:
            return _check_type(cls, name, inner[0], value, what)
        return value  # permissive for exotic unions (none in practice)

    if annotation is bool:
        if not isinstance(value, bool):
            raise ConfigFormatError(
                f"{what}.{name} must be a bool, got {value!r}")
        return value
    if annotation is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigFormatError(
                f"{what}.{name} must be an int, got {value!r}")
        return value
    if annotation is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigFormatError(
                f"{what}.{name} must be a number, got {value!r}")
        return float(value)
    if annotation is str:
        if not isinstance(value, str):
            raise ConfigFormatError(
                f"{what}.{name} must be a string, got {value!r}")
        return value

    if origin in (list, tuple):
        if not isinstance(value, (list, tuple)):
            raise ConfigFormatError(
                f"{what}.{name} must be a list, got {value!r}")
        if args:
            return [_check_type(cls, name, args[0], item, what)
                    for item in value]
        return list(value)

    if dataclasses.is_dataclass(annotation):
        return from_dict(annotation, value, what=f"{what}.{name}")

    # Any other annotation (none in practice) passes through untouched.
    return value


def from_dict(cls: Type[T], data: Mapping[str, Any],
              what: Optional[str] = None) -> T:
    """Rebuild a config dataclass from its canonical dict form.

    Strict: unknown keys, missing keys without defaults, wrong types and
    unsupported ``"schema"`` values raise :class:`ConfigFormatError`.
    The ``"schema"`` key is optional (nested dicts and ``asdict`` output
    omit it).
    """
    what = what or cls.__name__
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"{cls!r} is not a dataclass")
    if not isinstance(data, Mapping):
        raise ConfigFormatError(
            f"{what} must be a table/object, got {data!r}")

    data = dict(data)
    version = data.pop("schema", CONFIG_SCHEMA)
    if version != CONFIG_SCHEMA:
        raise ConfigFormatError(
            f"{what}: unsupported config schema {version!r} "
            f"(this simulator reads schema {CONFIG_SCHEMA})")

    field_map = {f.name: f for f in dataclasses.fields(cls) if f.init}
    unknown = sorted(set(data) - set(field_map))
    if unknown:
        raise ConfigFormatError(
            f"{what}: unknown key(s) {unknown}; known: "
            f"{sorted(field_map)}")

    hints = typing.get_type_hints(cls)
    kwargs: Dict[str, Any] = {}
    for name, f in field_map.items():
        if name not in data:
            if (f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING):
                raise ConfigFormatError(f"{what}: missing required key "
                                        f"{name!r}")
            continue
        kwargs[name] = _check_type(cls, name, hints.get(name), data[name],
                                   what)
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigFormatError(f"{what}: {exc}") from exc


class SerializableConfig:
    """Mixin giving a config dataclass the canonical wire methods.

    ``to_dict()`` emits the versioned canonical dict; ``from_dict()``
    strictly validates and rebuilds.  See the module docstring for the
    round-trip/fingerprint contract.
    """

    def to_dict(self) -> Dict[str, Any]:
        return to_dict(self)

    @classmethod
    def from_dict(cls: Type[T], data: Mapping[str, Any]) -> T:
        return from_dict(cls, data)
