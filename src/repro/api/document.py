"""Experiment documents: declarative, versioned descriptions of runs.

An *experiment document* is a JSON or TOML file that describes a batch
of simulations as data — the serialized equivalent of hand-building a
list of :class:`~repro.experiments.builders.SystemSpec` in Python (a
benchmark run is :func:`~repro.experiments.builders.benchmark_spec`'s
spec, a builder run the spec it spells out).  Loaded
documents validate strictly (unknown keys, bad types, unknown builders/
benchmarks/programs all fail at load time) and expand to exactly the
spec objects the code path builds, so running a document yields
byte-identical ``SweepResult`` payloads — and warm result-cache hits —
against the equivalent Python.

Document schema (``DOCUMENT_SCHEMA`` = 1)::

    schema = 1                      # required
    name = "fig7"                   # required
    description = "..."             # optional

    [configs.<label>]               # named chip configs
    preset = "chip_36core"          # chip_36core|chip_64core|
                                    #   chip_100core|variant
    width = 4                       # variant-only preset arguments
    height = 4
    goreq_vcs = 4
    [configs.<label>.overrides]     # ChipConfig field overrides
    directory_cache_bytes = 8192
    [configs.<label>.overrides.noc] # sub-config overrides (noc,
    channel_width_bytes = 8         #   notification, cache, memory,
                                    #   core), strictly validated

    [[runs]]                        # explicit run list, in order
    benchmark = "barnes"            # a benchmark under a protocol, OR
    protocol = "scorpio"
    # builder = "inso"              # a builder run, spelled out
    # params  = { expiration_window = 20 }
    # workload = { kind = "benchmark", name = "fft", ... }
    config = "<label>"              # optional; default chip when absent
    seed = 0
    ops_per_core = 60
    max_cycles = 400000
    label = "row-1"

    [matrix]                        # benchmark x protocol x seed matrix
    benchmarks = ["barnes", "lu"]   # (expands after explicit runs)
    protocols = ["lpd", "scorpio"]
    seeds = [0]
    config = "<label>"
    ops_per_core = 60

    [litmus]                        # SC litmus executions
    programs = ["message-passing"]  # default: the whole suite
    protocol = "scorpio"
    seeds = [0, 1, 2]

    [report]                        # observability report defaults
    journal_capacity = 1024         # ring-buffer size (>= 1)
    sample_interval = 64            # cycles between mesh samples (>= 1)
    journal_tail = 40               # journal rows shown in the HTML

Versioning rules: ``schema`` must equal :data:`DOCUMENT_SCHEMA`; new
*optional* keys may be added without a bump (old documents keep
loading), any change to the meaning of an existing key bumps the
version.  Unknown keys are always an error — a typo must never become a
silently ignored (or silently defaulted) experiment parameter.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.config import ChipConfig
from repro.core.serialize import ConfigFormatError
from repro.core.serialize import to_dict as _config_to_dict

# Version of the experiment-document format (see the module docstring
# for the bump rules).
DOCUMENT_SCHEMA = 1
# Version of the results envelope ``repro run-file --output`` writes.
RESULTS_SCHEMA = 1

_PRESETS = ("chip_36core", "chip_64core", "chip_100core", "variant")
_SUBCONFIGS = ("noc", "notification", "cache", "memory", "core")


class DocumentError(ValueError):
    """An experiment document failed validation."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise DocumentError(message)


def _check_keys(data: Mapping[str, Any], known: Sequence[str],
                what: str) -> None:
    _require(isinstance(data, Mapping),
             f"{what} must be a table/object, got {data!r}")
    unknown = sorted(set(data) - set(known))
    _require(not unknown,
             f"{what}: unknown key(s) {unknown}; known: {sorted(known)}")


def _get(data: Mapping[str, Any], key: str, types, what: str,
         default=None, required: bool = False):
    if key not in data:
        _require(not required, f"{what}: missing required key {key!r}")
        return default
    value = data[key]
    # bool is an int subclass: it passes only where bool is asked for.
    _require(isinstance(value, types)
             and (type(value) is not bool or bool in
                  (types if isinstance(types, tuple) else (types,))),
             f"{what}.{key} has the wrong type: {value!r}")
    return value


def _int_list(data: Mapping[str, Any], key: str, what: str,
              default: Sequence[int]) -> List[int]:
    value = _get(data, key, (list, tuple), what, default=list(default))
    for item in value:
        _require(isinstance(item, int) and not isinstance(item, bool),
                 f"{what}.{key} must be a list of ints, got {item!r}")
    return list(value)


def _str_list(data: Mapping[str, Any], key: str, what: str,
              default: Optional[Sequence[str]] = None,
              required: bool = False) -> Optional[List[str]]:
    value = _get(data, key, (list, tuple), what, default=default,
                 required=required)
    if value is None:
        return None
    for item in value:
        _require(isinstance(item, str),
                 f"{what}.{key} must be a list of strings, got {item!r}")
    return list(value)


# ---------------------------------------------------------------------------
# Config resolution
# ---------------------------------------------------------------------------

def _resolve_config(data: Mapping[str, Any], what: str) -> ChipConfig:
    """Build a ChipConfig from a ``[configs.<label>]`` table."""
    _check_keys(data, ("preset", "width", "height", "goreq_vcs",
                       "overrides"), what)
    preset = _get(data, "preset", str, what, default="chip_36core")
    _require(preset in _PRESETS,
             f"{what}: unknown preset {preset!r}; known: {list(_PRESETS)}")
    if preset == "variant":
        width = _get(data, "width", int, what, required=True)
        height = _get(data, "height", int, what, required=True)
        goreq_vcs = _get(data, "goreq_vcs", int, what, default=4)
        config = ChipConfig.variant(width, height, goreq_vcs=goreq_vcs)
    else:
        for key in ("width", "height", "goreq_vcs"):
            _require(key not in data,
                     f"{what}.{key} only applies to the 'variant' preset")
        config = getattr(ChipConfig, preset)()

    overrides = _get(data, "overrides", Mapping, what, default={})
    if not overrides:
        return config
    _check_keys(overrides, list(_SUBCONFIGS)
                + ["directory_cache_bytes", "mc_nodes"],
                f"{what}.overrides")
    chip = _config_to_dict(config, schema=False)
    for key, value in overrides.items():
        if key in _SUBCONFIGS:
            _require(isinstance(value, Mapping),
                     f"{what}.overrides.{key} must be a table")
            chip[key] = {**chip[key], **value}
        else:
            chip[key] = value
    # A mesh-dimension override invalidates the preset's memory-
    # controller placement and notification-window bound; recompute
    # both unless the document pins them (ChipConfig.variant does the
    # same for preset-level dimensions).
    noc_override = overrides.get("noc", {})
    if "width" in noc_override or "height" in noc_override:
        if "mc_nodes" not in overrides:
            chip["mc_nodes"] = None
        notification_override = overrides.get("notification", {})
        if "window" not in notification_override:
            from repro.noc.config import NotificationConfig
            chip["notification"]["window"] = max(
                chip["notification"]["window"],
                NotificationConfig.minimum_window(chip["noc"]["width"],
                                                  chip["noc"]["height"]))
    try:
        return ChipConfig.from_dict(chip)
    except ConfigFormatError as exc:
        raise DocumentError(f"{what}: {exc}") from exc


# ---------------------------------------------------------------------------
# Run entries
# ---------------------------------------------------------------------------

# The benchmark knobs a run or matrix may give, with the types a
# document may spell them in.  Their defaults are the benchmark
# workload's / benchmark_spec's: _knobs forwards only the keys a
# document gives.
_KNOB_TYPES = {"ops_per_core": int, "workload_scale": (int, float),
               "think_scale": (int, float), "seed": int, "max_cycles": int}
_RUN_KEYS = ("benchmark", "protocol", "builder", "params", "workload",
             "config", "label", *_KNOB_TYPES)


def _knobs(data: Mapping[str, Any], keys: Sequence[str],
           what: str) -> Dict[str, Any]:
    """The typed benchmark knobs *data* gives among *keys*, as spec
    keyword arguments."""
    knobs: Dict[str, Any] = {}
    for key in keys:
        if key not in data:
            continue
        value = _get(data, key, _KNOB_TYPES[key], what)
        if key in ("ops_per_core", "max_cycles"):
            _require(value >= 0, f"{what}.{key} must be >= 0, got {value!r}")
        knobs[key] = value if _KNOB_TYPES[key] is int else float(value)
    return knobs


def _protocol(protocol: str, what: str) -> str:
    from repro.core.api import PROTOCOLS
    _require(protocol in PROTOCOLS,
             f"{what}: unknown protocol {protocol!r}; known: "
             f"{list(PROTOCOLS)}")
    return protocol


def _lookup_config(name: Optional[str],
                   configs: Mapping[str, ChipConfig],
                   what: str) -> Optional[ChipConfig]:
    if name is None:
        return None
    _require(name in configs,
             f"{what}: unknown config {name!r}; defined: {sorted(configs)}")
    return configs[name]


def _validated(spec, what: str, memo):
    """*spec*, once its key resolves (params + workload: strict checks)."""
    try:
        spec.key(memo)
    except (KeyError, ValueError) as exc:
        raise DocumentError(f"{what}: {exc.args[0]}") from exc
    return spec


def _resolve_run(data: Mapping[str, Any],
                 configs: Mapping[str, ChipConfig], what: str, memo):
    """One ``[[runs]]`` entry -> SystemSpec (*memo*: the document's
    :class:`~repro.experiments.spec.KeyMemo`)."""
    from repro.experiments import SystemSpec, benchmark_spec, builder_names

    _check_keys(data, _RUN_KEYS, what)
    is_benchmark = "benchmark" in data
    is_system = "builder" in data
    _require(is_benchmark != is_system,
             f"{what}: exactly one of 'benchmark' (protocol run) or "
             f"'builder' (system run) is required")
    config = _lookup_config(_get(data, "config", str, what), configs, what)
    label = _get(data, "label", str, what, default="")

    if is_benchmark:
        for key in ("params", "workload"):
            _require(key not in data,
                     f"{what}.{key} only applies to builder runs")
        protocol = _protocol(_get(data, "protocol", str, what,
                                  default="scorpio"), what)
        return _validated(benchmark_spec(
            _get(data, "benchmark", str, what, required=True), protocol,
            config, label=label, **_knobs(data, _KNOB_TYPES, what)),
            what, memo)

    for key in ("ops_per_core", "workload_scale", "think_scale", "seed",
                "protocol"):
        _require(key not in data,
                 f"{what}.{key} only applies to benchmark runs (builder "
                 f"runs carry them inside 'workload'/'params')")
    builder = _get(data, "builder", str, what, required=True)
    _require(builder in builder_names(),
             f"{what}: unknown builder {builder!r}; known: "
             f"{builder_names()}")
    return _validated(SystemSpec(
        builder=builder, config=config,
        params=dict(_get(data, "params", Mapping, what, default={})),
        workload=dict(_get(data, "workload", Mapping, what, default={})),
        label=label, **_knobs(data, ("max_cycles",), what)), what, memo)


_MATRIX_KNOBS = tuple(key for key in _KNOB_TYPES if key != "seed")
_MATRIX_KEYS = ("benchmarks", "protocols", "seeds", "config", "configs",
                *_MATRIX_KNOBS)


def _resolve_matrix(data: Mapping[str, Any],
                    configs: Mapping[str, ChipConfig], what: str, memo):
    """A ``[matrix]`` table -> expanded SystemSpec list: configs, then
    benchmarks, then protocols, then seeds."""
    from repro.experiments import benchmark_spec

    _check_keys(data, _MATRIX_KEYS, what)
    benchmarks = _str_list(data, "benchmarks", what, required=True)
    protocols = [_protocol(protocol, what) for protocol in
                 _str_list(data, "protocols", what, default=["scorpio"])]
    _require("config" not in data or "configs" not in data,
             f"{what}: give either 'config' or 'configs', not both")
    if "configs" in data:
        labelled = list({name: _lookup_config(name, configs, what)
                         for name in _str_list(data, "configs", what)
                         }.items())
    else:
        labelled = [("", _lookup_config(_get(data, "config", str, what),
                                        configs, what))]
    seeds = _int_list(data, "seeds", what, default=(0,))
    knobs = _knobs(data, _MATRIX_KNOBS, what)
    return [_validated(benchmark_spec(benchmark, protocol, config,
                                      label=label, seed=seed, **knobs),
                       what, memo)
            for label, config in labelled
            for benchmark in benchmarks
            for protocol in protocols
            for seed in seeds]


_LITMUS_KEYS = ("programs", "protocol", "seeds", "width", "height",
                "max_cycles")


def _resolve_litmus(data: Mapping[str, Any], what: str):
    """A ``[litmus]`` table -> (program, spec) pairs, suite order."""
    from repro.verification.litmus import ALL_LITMUS, litmus_spec

    _check_keys(data, _LITMUS_KEYS, what)
    protocol = _protocol(_get(data, "protocol", str, what,
                              default="scorpio"), what)
    seeds = _int_list(data, "seeds", what, default=(0, 1, 2))
    kwargs = {}
    for key, default, least in (("width", 3, 2), ("height", 3, 2),
                                ("max_cycles", 100_000, 0)):
        kwargs[key] = _get(data, key, int, what, default=default)
        _require(kwargs[key] >= least,
                 f"{what}.{key} must be >= {least}, got {kwargs[key]!r}")
    nodes = kwargs["width"] * kwargs["height"]
    by_name = {program.name: program for program in ALL_LITMUS}
    names = _str_list(data, "programs", what, default=sorted(by_name))
    for name in names:
        _require(name in by_name,
                 f"{what}: unknown litmus program {name!r}; known: "
                 f"{sorted(by_name)}")
        _require(len(by_name[name].threads) <= nodes,
                 f"{what}: litmus program {name!r} has "
                 f"{len(by_name[name].threads)} threads, more than the "
                 f"{nodes} nodes of a {kwargs['width']}x"
                 f"{kwargs['height']} mesh")
    return [(by_name[name],
             litmus_spec(by_name[name], protocol=protocol, seed=seed,
                         **kwargs))
            for name in names for seed in seeds]


_REPORT_KEYS = ("journal_capacity", "sample_interval", "journal_tail")


def _resolve_report(data: Mapping[str, Any], what: str) -> Dict[str, Any]:
    """A ``[report]`` table -> observability defaults for ``--report``.

    Purely additive (no schema bump): the table configures the HTML
    report's instrumented re-runs and never changes what the document
    itself computes — result envelopes stay byte-identical with or
    without it."""
    from repro.sim.journal import DEFAULT_CAPACITY, DEFAULT_SAMPLE_INTERVAL

    _check_keys(data, _REPORT_KEYS, what)
    resolved = {
        "journal_capacity": _get(data, "journal_capacity", int, what,
                                 default=DEFAULT_CAPACITY),
        "sample_interval": _get(data, "sample_interval", int, what,
                                default=DEFAULT_SAMPLE_INTERVAL),
        "journal_tail": _get(data, "journal_tail", int, what, default=40),
    }
    for key in ("journal_capacity", "sample_interval"):
        _require(resolved[key] >= 1, f"{what}.{key} must be >= 1")
    _require(resolved["journal_tail"] >= 0,
             f"{what}.journal_tail must be >= 0")
    return resolved


# ---------------------------------------------------------------------------
# The document
# ---------------------------------------------------------------------------

@dataclass
class ExperimentSpec:
    """A fully resolved, validated experiment document.

    ``specs`` holds the expanded run list in document order (explicit
    ``[[runs]]``, then the ``[matrix]`` expansion, then the ``[litmus]``
    executions); ``litmus_checks`` maps litmus programs to the indices
    of their executions in ``specs`` so results can be SC-judged.
    """

    name: str
    description: str = ""
    source: Optional[str] = None
    configs: Dict[str, ChipConfig] = field(default_factory=dict)
    specs: List[Any] = field(default_factory=list)
    litmus_checks: List[Tuple[Any, int]] = field(default_factory=list)
    report: Optional[Dict[str, Any]] = None

    def __len__(self) -> int:
        return len(self.specs)

    def resolved(self, fingerprints: bool = False) -> Dict[str, Any]:
        """The canonical resolved document: every run fully expanded
        (config, workload, params), ready to print or diff.  With
        ``fingerprints=True`` each run also carries its content hash
        (this reads and hashes the simulator sources once)."""
        from repro.experiments.cache import code_version
        version = code_version() if fingerprints else None
        runs = []
        for spec in self.specs:
            entry = {"label": spec.label, **spec.key()}
            if fingerprints:
                entry["fingerprint"] = spec.fingerprint(
                    code_version=version)
            runs.append(entry)
        document: Dict[str, Any] = {
            "schema": DOCUMENT_SCHEMA,
            "name": self.name,
            "description": self.description,
            "runs": runs,
        }
        if self.litmus_checks:
            document["litmus_programs"] = sorted(
                {program.name for program, _ in self.litmus_checks})
        if self.report is not None:
            document["report"] = dict(self.report)
        return document


_DOCUMENT_KEYS = ("schema", "name", "description", "configs", "runs",
                  "matrix", "litmus", "report")


def experiment_from_dict(data: Mapping[str, Any],
                         source: Optional[str] = None) -> ExperimentSpec:
    """Validate and resolve a parsed document dict (the shared core of
    :func:`load_experiment`)."""
    what = source or "experiment"
    _check_keys(data, _DOCUMENT_KEYS, what)
    schema = _get(data, "schema", int, what, required=True)
    _require(schema == DOCUMENT_SCHEMA,
             f"{what}: unsupported document schema {schema!r} (this "
             f"simulator reads schema {DOCUMENT_SCHEMA})")
    name = _get(data, "name", str, what, required=True)

    configs_raw = _get(data, "configs", Mapping, what, default={})
    configs = {label: _resolve_config(table, f"{what}.configs.{label}")
               for label, table in configs_raw.items()}

    from repro.experiments.spec import KeyMemo

    specs: List[Any] = []
    memo = KeyMemo()     # this call only: the configs are mutable
    runs_raw = _get(data, "runs", (list, tuple), what, default=[])
    for index, entry in enumerate(runs_raw):
        specs.append(_resolve_run(entry, configs,
                                  f"{what}.runs[{index}]", memo))
    if "matrix" in data:
        specs.extend(_resolve_matrix(data["matrix"], configs,
                                     f"{what}.matrix", memo))
    litmus_checks: List[Tuple[Any, int]] = []
    if "litmus" in data:
        for program, spec in _resolve_litmus(data["litmus"],
                                             f"{what}.litmus"):
            litmus_checks.append((program, len(specs)))
            specs.append(spec)
    report = (_resolve_report(data["report"], f"{what}.report")
              if "report" in data else None)
    _require(bool(specs),
             f"{what}: document describes no work (needs runs, a "
             f"matrix or a litmus table)")
    return ExperimentSpec(name=name,
                          description=_get(data, "description", str, what,
                                           default=""),
                          source=source, configs=configs, specs=specs,
                          litmus_checks=litmus_checks, report=report)


def _parse_toml(text: str, what: str) -> Dict[str, Any]:
    try:
        import tomllib
    except ImportError:   # pragma: no cover - Python < 3.11
        try:
            import tomli as tomllib  # type: ignore[no-redef]
        except ImportError:
            raise DocumentError(
                f"{what}: TOML documents need Python >= 3.11 (tomllib) "
                f"or the 'tomli' package; use the JSON form instead"
            ) from None
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise DocumentError(f"{what}: invalid TOML: {exc}") from exc


def document_to_dict(path) -> Dict[str, Any]:
    """Parse a document file (``.toml`` or ``.json``, decided by
    extension) into the dict form ``POST /v1/jobs`` expects, without
    resolving it."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    if path.suffix.lower() == ".toml":
        return _parse_toml(text, str(path))
    try:
        return json.loads(text)
    except ValueError as exc:
        raise DocumentError(f"{path}: invalid JSON: {exc}") from exc


def load_experiment(path) -> ExperimentSpec:
    """Load, validate and resolve an experiment document."""
    return experiment_from_dict(document_to_dict(path), source=str(path))


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

@dataclass
class ExperimentResult:
    """Everything one document run produced."""

    experiment: ExperimentSpec
    results: List[Any] = field(default_factory=list)
    litmus_verdicts: Dict[str, bool] = field(default_factory=dict)
    # Per-job cache effectiveness: {"hits": int, "misses": int} counted
    # over exactly this job's lookups (one per spec, in spec order), or
    # None when the job ran uncached.  One miss per *requested* point:
    # a duplicate of a pending point counts as its own miss even though
    # it simulates once.
    cache_stats: Optional[Dict[str, int]] = None

    def payload(self) -> Dict[str, Any]:
        """The stable results envelope ``repro run-file --output``
        writes: a schema tag, the document identity, one canonical
        ``SweepResult`` payload per run (cache-invariant), and the SC
        verdicts for litmus documents.  Cached executions also carry
        this job's hit/miss counts under ``"cache"`` (purely additive:
        uncached envelopes are byte-identical to pre-stats ones)."""
        out: Dict[str, Any] = {
            "schema": RESULTS_SCHEMA,
            "experiment": self.experiment.name,
            "description": self.experiment.description,
            "results": [result.payload() for result in self.results],
        }
        if self.litmus_verdicts:
            out["litmus"] = dict(sorted(self.litmus_verdicts.items()))
        if self.cache_stats is not None:
            out["cache"] = dict(self.cache_stats)
        return out


def envelope_bytes(payload: Mapping[str, Any]) -> bytes:
    """The canonical serialized form of a results envelope: exactly
    ``(json.dumps(payload, indent=2, sort_keys=True) + "\\n").encode()``.

    Every writer of an envelope — ``repro run-file --output``, the
    ``repro serve`` result endpoint, the submit client's ``--output`` —
    serializes through this one function, so the service's byte-identity
    contract (HTTP result == local ``run-file`` result) holds by
    construction.

    With ``indent`` set the stdlib takes its pure-Python encoder, so the
    text is built here instead: the plain scalars of a container go to
    the C encoder with an item separator that carries the newline and
    padding (JSON text never holds a raw newline, so that is the
    indented form), nested dicts and lists recurse, and anything else —
    a scalar at the top, non-str keys, dict/list subclasses, non-JSON
    types, a cycle — is the stdlib's own text (or error), re-indented.
    Without the ``_json`` C accelerator (an interpreter other than
    CPython) the text is the stdlib's dump.
    ``tests/test_warm_document.py`` holds the two to the same bytes."""
    text = None
    if c_make_encoder is not None:
        try:
            text = _indented(payload, "", {})
        except RecursionError:
            pass
    if text is None:
        text = json.dumps(payload, indent=2, sort_keys=True)
    return (text + "\n").encode("utf-8")


_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))
_STR = frozenset((str,))


def _indented(value: Any, pad: str, flat: Dict[str, Any]) -> str:
    """*value* as ``json.dumps(value, indent=2, sort_keys=True)`` writes
    it *pad* deep; *flat* holds this call's C encoders, one per depth.
    The scalars of a container go to the C encoder in runs: all of them
    at once when there is nothing else, else each run between two
    nested containers."""
    kind = type(value)
    if kind is dict and _STR.issuperset(map(type, value)):
        if not value:
            return "{}"
        inner = pad + "  "
        if _SCALAR_TYPES.issuperset(map(type, value.values())):
            parts = [_flat_items(value, inner, flat)]
        else:
            parts = []
            run: Dict[str, Any] = {}
            for key in sorted(value):
                item = value[key]
                if type(item) in _SCALAR_TYPES:
                    run[key] = item
                    continue
                if run:
                    parts.append(_flat_items(run, inner, flat))
                    run = {}
                parts.append(encode_basestring_ascii(key) + ": "
                             + _indented(item, inner, flat))
            if run:
                parts.append(_flat_items(run, inner, flat))
        return "{\n" + inner + (",\n" + inner).join(parts) + "\n" + pad + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = pad + "  "
        parts = []
        items: List[Any] = []
        for item in value:
            if type(item) in _SCALAR_TYPES:
                items.append(item)
                continue
            if items:
                parts.append(_flat_items(items, inner, flat))
                items = []
            parts.append(_indented(item, inner, flat))
        if items:
            parts.append(_flat_items(items, inner, flat))
        return "[\n" + inner + (",\n" + inner).join(parts) + "\n" + pad + "]"
    return json.dumps(value, indent=2, sort_keys=True).replace(
        "\n", "\n" + pad)


def _flat_items(value: Any, inner: str, flat: Dict[str, Any]) -> str:
    """The items of a container of plain scalars, in one C encoder call,
    separated by a newline and *inner*."""
    encoder = flat.get(inner)
    if encoder is None:
        encoder = flat[inner] = c_make_encoder(
            None, None, encode_basestring_ascii, None, ": ", ",\n" + inner,
            True, False, True)
    return "".join(encoder(value, 0))[1:-1]


def collect_experiment_result(experiment: ExperimentSpec,
                              results: List[Any]) -> ExperimentResult:
    """Judge litmus executions and wrap *results* (one ``SweepResult``
    per ``experiment.specs`` entry, in order) into an
    :class:`ExperimentResult` — the shared tail of
    :func:`run_experiment` and the checkpointed executor
    (:mod:`repro.experiments.checkpoint_exec`)."""
    verdicts: Dict[str, bool] = {}
    if experiment.litmus_checks:
        from repro.verification.litmus import (is_sequentially_consistent,
                                               recorded_observations)
        for program, index in experiment.litmus_checks:
            ok = is_sequentially_consistent(
                program, recorded_observations(results[index]))
            verdicts[program.name] = verdicts.get(program.name, True) and ok

    return ExperimentResult(experiment=experiment, results=results,
                            litmus_verdicts=verdicts)


def run_experiment(experiment: Union[ExperimentSpec, str, Path],
                   jobs: Optional[int] = None,
                   cache=None) -> ExperimentResult:
    """Execute an experiment document (or its path) through the sweep
    runner, serially and uncached unless *jobs* / *cache* say otherwise
    (exactly like :func:`~repro.experiments.sweep.run_sweep`).  Cached
    executions record the plan's hit/miss counts in ``cache_stats`` (and
    hence the envelope), so cache effectiveness is observable per job
    even when the ``ResultCache`` object is shared across jobs."""
    from repro.experiments import run_plan
    if not isinstance(experiment, ExperimentSpec):
        experiment = load_experiment(experiment)
    plan = run_plan(experiment.specs, jobs=jobs, cache=cache)
    collected = collect_experiment_result(experiment, plan.results)
    collected.cache_stats = plan.cache_stats
    return collected


def describe_experiment(experiment: Union[ExperimentSpec, str, Path],
                        fingerprints: bool = False,
                        indent: int = 2) -> str:
    """The resolved, validated document as stable JSON text — what
    ``repro describe <path>`` prints."""
    if not isinstance(experiment, ExperimentSpec):
        experiment = load_experiment(experiment)
    return json.dumps(experiment.resolved(fingerprints=fingerprints),
                      sort_keys=True, indent=indent)
