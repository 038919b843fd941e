"""Golden experiment documents (repro.api v1).

The checked-in documents under examples/experiments/ are the declarative
form of the figure harnesses.  The contract locked here:

* each document expands to *exactly* the specs the code path builds
  (same resolved keys, same labels, same order);
* running the document yields byte-identical ``SweepResult`` payloads
  to the code path, and the two share result-cache entries (a document
  run warms the cache for the code-built equivalent);
* validation is strict — malformed documents fail at load with a
  pointed error, never as a silently defaulted simulation.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.figures import FIGURES, QUICK
from repro.api import (DOCUMENT_SCHEMA, RESULTS_SCHEMA, DocumentError,
                       describe_experiment, experiment_from_dict,
                       load_experiment, run_experiment)
from repro.experiments import (SystemSpec, as_cache, benchmark_spec,
                               run_sweep)

DOCS = Path(__file__).resolve().parent.parent / "examples" / "experiments"

try:
    import tomllib                                     # noqa: F401
    HAS_TOML = True
except ImportError:   # pragma: no cover - Python < 3.11
    try:
        import tomli as tomllib  # type: ignore[no-redef]  # noqa: F401
        HAS_TOML = True
    except ImportError:
        HAS_TOML = False

needs_toml = pytest.mark.skipif(
    not HAS_TOML, reason="TOML documents need tomllib (3.11+) or tomli")

CASES = {fig_id: lambda fig_id=fig_id: FIGURES[fig_id].points(QUICK, 0)
         for fig_id in ("fig7", "sec2", "incf", "locks")}


def _minimal(**extra):
    base = {"schema": DOCUMENT_SCHEMA, "name": "t",
            "runs": [{"builder": "scorpio"}]}
    base.update(extra)
    return base


# ---------------------------------------------------------------------------
# Document == code path
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case", sorted(CASES))
@needs_toml
def test_document_expands_to_code_path_specs(case):
    document = load_experiment(DOCS / f"{case}.toml")
    code_specs = CASES[case]()
    assert len(document.specs) == len(code_specs)
    for doc_spec, code_spec in zip(document.specs, code_specs):
        assert doc_spec.key() == code_spec.key()
        assert doc_spec.label == code_spec.label


@pytest.mark.parametrize("case", sorted(CASES))
@needs_toml
def test_document_payloads_byte_identical_and_cache_shared(case, tmp_path):
    """Run the document, then the code path against the same cache: the
    code path must be answered entirely from the document's results and
    the two payload streams must serialize byte-for-byte the same."""
    cache = as_cache(tmp_path / "cache")
    document = load_experiment(DOCS / f"{case}.toml")
    doc_results = run_experiment(document, cache=cache).results
    code_results = run_sweep(CASES[case](), cache=cache)
    assert all(result.cached for result in code_results), \
        "code path missed the cache the document warmed"
    doc_bytes = [json.dumps(result.payload(), sort_keys=True)
                 for result in doc_results]
    code_bytes = [json.dumps(result.payload(), sort_keys=True)
                  for result in code_results]
    assert doc_bytes == code_bytes


@needs_toml
def test_smoke_document_results_envelope(tmp_path):
    """The CI document end-to-end: runs, litmus verdict, stable
    envelope schema."""
    outcome = run_experiment(DOCS / "fig7_smoke.toml")
    payload = outcome.payload()
    assert payload["schema"] == RESULTS_SCHEMA
    assert payload["experiment"] == "fig7-smoke"
    assert len(payload["results"]) == 4
    for row in payload["results"]:
        assert row["progress"] == 1.0
    assert payload["litmus"] == {"message-passing": True}
    # The envelope is JSON-able and stable.
    text = json.dumps(payload, sort_keys=True)
    assert json.loads(text) == payload


@needs_toml
def test_json_form_equivalent_to_toml():
    import tomllib
    raw = tomllib.loads((DOCS / "locks.toml").read_text())
    from_toml = load_experiment(DOCS / "locks.toml")
    from_json = experiment_from_dict(json.loads(json.dumps(raw)))
    assert from_json.resolved() == from_toml.resolved()


@needs_toml
def test_describe_is_stable_resolved_json():
    text = describe_experiment(DOCS / "locks.toml")
    resolved = json.loads(text)
    assert resolved["schema"] == DOCUMENT_SCHEMA
    assert resolved["name"] == "locks"
    assert len(resolved["runs"]) == 3
    # Fully expanded: each run embeds the whole chip config.
    assert resolved["runs"][0]["config"]["noc"]["width"] == 3
    assert text == describe_experiment(DOCS / "locks.toml")


@needs_toml
def test_describe_fingerprints_match_spec_fingerprints():
    document = load_experiment(DOCS / "locks.toml")
    resolved = document.resolved(fingerprints=True)
    from repro.experiments.cache import code_version
    version = code_version()
    for entry, spec in zip(resolved["runs"], document.specs):
        assert entry["fingerprint"] == spec.fingerprint(
            code_version=version)


# ---------------------------------------------------------------------------
# Matrix / litmus sections
# ---------------------------------------------------------------------------

def test_matrix_expands_like_sweep():
    document = experiment_from_dict({
        "schema": 1, "name": "m",
        "matrix": {"benchmarks": ["fft", "lu"],
                   "protocols": ["lpd", "scorpio"], "seeds": [0, 1],
                   "ops_per_core": 12}})
    # Benchmarks, then protocols, then seeds; every other knob at the
    # benchmark_spec / benchmark-workload default.
    expected = [benchmark_spec(benchmark, protocol, seed=seed,
                               ops_per_core=12)
                for benchmark in ("fft", "lu")
                for protocol in ("lpd", "scorpio") for seed in (0, 1)]
    assert [spec.key() for spec in document.specs] == \
        [spec.key() for spec in expected]
    assert all(isinstance(spec, SystemSpec) and spec.protocol
               for spec in document.specs)


def test_litmus_section_expands_programs_by_seed():
    document = experiment_from_dict({
        "schema": 1, "name": "l",
        "litmus": {"programs": ["message-passing", "store-buffering"],
                   "seeds": [0, 7]}})
    assert len(document.specs) == 4
    assert {program.name for program, _ in document.litmus_checks} == \
        {"message-passing", "store-buffering"}
    indices = [index for _, index in document.litmus_checks]
    assert indices == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# Strict validation
# ---------------------------------------------------------------------------

def test_rejects_unknown_top_level_key():
    with pytest.raises(DocumentError, match="unknown key"):
        experiment_from_dict(_minimal(extra_section={}))


def test_rejects_missing_schema():
    with pytest.raises(DocumentError, match="schema"):
        experiment_from_dict({"name": "x", "runs": []})


def test_rejects_future_schema():
    with pytest.raises(DocumentError, match="unsupported document"):
        experiment_from_dict(_minimal(schema=DOCUMENT_SCHEMA + 1))


def test_rejects_empty_document():
    with pytest.raises(DocumentError, match="describes no work"):
        experiment_from_dict({"schema": 1, "name": "x"})


def test_rejects_run_with_both_shapes():
    with pytest.raises(DocumentError, match="exactly one"):
        experiment_from_dict({
            "schema": 1, "name": "x",
            "runs": [{"benchmark": "fft", "builder": "scorpio"}]})


def test_rejects_unknown_builder_and_protocol():
    with pytest.raises(DocumentError, match="unknown builder"):
        experiment_from_dict({"schema": 1, "name": "x",
                              "runs": [{"builder": "warp-drive"}]})
    with pytest.raises(DocumentError, match="unknown protocol"):
        experiment_from_dict({
            "schema": 1, "name": "x",
            "runs": [{"benchmark": "fft", "protocol": "mesi"}]})


def test_rejects_unknown_benchmark_and_builder_param():
    with pytest.raises(DocumentError, match="unknown benchmark"):
        experiment_from_dict({"schema": 1, "name": "x",
                              "runs": [{"benchmark": "doom"}]})
    with pytest.raises(DocumentError, match="unknown builder parameter"):
        experiment_from_dict({
            "schema": 1, "name": "x",
            "runs": [{"builder": "inso", "params": {"window": 3}}]})


# One wrongly typed value per builder param.  A param's type is its
# system class's annotation (litmus: its default's type; ``name`` and
# ``threads`` are required and name no type).
WRONGLY_TYPED = [
    ("directory", "scheme", "ht"),
    ("directory", "incf", 1),
    ("directory", "incf_table_capacity", "big"),
    ("multimesh", "n_meshes", 2.0),
    ("tokenb", "retry_timeout", True),
    ("tokenb", "incf", "yes"),
    ("inso", "expiration_window", "20"),
    ("timestamp", "slack", "abc"),
    ("uncorq", "ring_hop_latency", 1.5),
    ("uncorq", "retry_timeout", None),
    ("litmus", "protocol", 3),
    ("litmus", "seed", "0"),
]


def test_every_typed_builder_param_has_a_wrongly_typed_row():
    from repro.experiments import list_builders
    typed = {(name, param) for name, _, defaults in list_builders()
             for param in defaults if (name, param) not in
             {("litmus", "name"), ("litmus", "threads")}}
    assert typed == {(name, param) for name, param, _ in WRONGLY_TYPED}


@pytest.mark.parametrize("builder,param,value", WRONGLY_TYPED,
                         ids=[f"{b}-{p}" for b, p, _ in WRONGLY_TYPED])
def test_rejects_wrongly_typed_builder_param(builder, param, value):
    params = {param: value}
    if builder == "litmus":
        params.update(name="mp", threads=[[["W", "x"]]])
    with pytest.raises(DocumentError, match=f"parameter '{param}'"):
        experiment_from_dict({
            "schema": 1, "name": "x",
            "runs": [{"builder": builder, "params": params}]})


def test_rejects_undefined_config_reference():
    with pytest.raises(DocumentError, match="unknown config"):
        experiment_from_dict({
            "schema": 1, "name": "x",
            "runs": [{"builder": "scorpio", "config": "ghost"}]})


def test_rejects_bad_config_override_key():
    with pytest.raises(DocumentError, match="unknown key"):
        experiment_from_dict({
            "schema": 1, "name": "x",
            "configs": {"c": {"preset": "chip_36core",
                              "overrides": {"noc": {"wdith": 4}}}},
            "runs": [{"builder": "scorpio", "config": "c"}]})


def test_rejects_unknown_litmus_program():
    with pytest.raises(DocumentError, match="unknown litmus program"):
        experiment_from_dict({"schema": 1, "name": "x",
                              "litmus": {"programs": ["nonsense"]}})


def test_variant_preset_requires_dimensions():
    with pytest.raises(DocumentError, match="width"):
        experiment_from_dict({
            "schema": 1, "name": "x",
            "configs": {"c": {"preset": "variant"}},
            "runs": [{"builder": "scorpio", "config": "c"}]})


def test_mesh_override_recomputes_mc_nodes():
    """Overriding mesh dimensions through overrides.noc must not keep
    the preset's stale memory-controller placement."""
    document = experiment_from_dict({
        "schema": 1, "name": "x",
        "configs": {"c": {"preset": "chip_36core",
                          "overrides": {"noc": {"width": 4,
                                                "height": 4}}}},
        "runs": [{"builder": "scorpio", "config": "c"}]})
    from repro.core.config import default_mc_nodes
    config = document.configs["c"]
    assert config.mc_nodes == default_mc_nodes(4, 4)


def test_mesh_override_recomputes_notification_window():
    """Growing the mesh through overrides.noc must also raise the
    notification window to the new latency bound (ChipConfig.variant
    does this for preset dimensions) — otherwise the document loads but
    every run crashes at system-build time.  An explicitly pinned
    window is respected."""
    from repro.noc.config import NotificationConfig
    document = experiment_from_dict({
        "schema": 1, "name": "x",
        "configs": {"c": {"preset": "chip_36core",
                          "overrides": {"noc": {"width": 10,
                                                "height": 10}}}},
        "runs": [{"builder": "scorpio", "config": "c"}]})
    config = document.configs["c"]
    assert config.notification.window >= \
        NotificationConfig.minimum_window(10, 10)
    pinned = experiment_from_dict({
        "schema": 1, "name": "x",
        "configs": {"c": {"preset": "chip_36core",
                          "overrides": {"noc": {"width": 4, "height": 4},
                                        "notification": {"window": 9}}}},
        "runs": [{"builder": "scorpio", "config": "c"}]})
    assert pinned.configs["c"].notification.window == 9


@needs_toml
def test_load_errors_name_the_file(tmp_path):
    path = tmp_path / "broken.toml"
    path.write_text("schema = 1\nname = 'x'\nrusn = 3\n")
    with pytest.raises(DocumentError, match="broken.toml"):
        load_experiment(path)
    missing = tmp_path / "absent.toml"
    with pytest.raises(DocumentError, match="cannot read"):
        load_experiment(missing)
    bad_json = tmp_path / "broken.json"
    bad_json.write_text("{not json")
    with pytest.raises(DocumentError, match="invalid JSON"):
        load_experiment(bad_json)


# ---------------------------------------------------------------------------
# [report] table (additive, no schema bump)
# ---------------------------------------------------------------------------

def test_report_table_defaults_and_resolved_round_trip():
    from repro.sim.journal import DEFAULT_CAPACITY, DEFAULT_SAMPLE_INTERVAL
    document = experiment_from_dict(_minimal(report={}))
    assert document.report == {"journal_capacity": DEFAULT_CAPACITY,
                               "sample_interval": DEFAULT_SAMPLE_INTERVAL,
                               "journal_tail": 40}
    assert document.resolved()["report"] == document.report
    # Documents without the table resolve without the key (old
    # documents keep loading and keep resolving identically).
    assert "report" not in experiment_from_dict(_minimal()).resolved()


def test_report_table_overrides():
    document = experiment_from_dict(_minimal(
        report={"journal_capacity": 16, "sample_interval": 8,
                "journal_tail": 5}))
    assert document.report == {"journal_capacity": 16,
                               "sample_interval": 8, "journal_tail": 5}


def test_report_table_rejects_unknown_key_and_bad_values():
    with pytest.raises(DocumentError, match="unknown key"):
        experiment_from_dict(_minimal(report={"capacity": 5}))
    with pytest.raises(DocumentError, match="journal_capacity"):
        experiment_from_dict(_minimal(report={"journal_capacity": 0}))
    with pytest.raises(DocumentError, match="sample_interval"):
        experiment_from_dict(_minimal(report={"sample_interval": 0}))
    with pytest.raises(DocumentError, match="journal_tail"):
        experiment_from_dict(_minimal(report={"journal_tail": -1}))
    with pytest.raises(DocumentError, match="wrong type"):
        experiment_from_dict(_minimal(report={"sample_interval": "x"}))


def test_report_table_does_not_change_spec_expansion():
    plain = experiment_from_dict(_minimal())
    with_report = experiment_from_dict(_minimal(report={}))
    assert [spec.key() for spec in plain.specs] == \
        [spec.key() for spec in with_report.specs]


# ---------------------------------------------------------------------------
# Typed knobs and builder/workload values
# ---------------------------------------------------------------------------

def _run(**entry):
    return {"schema": 1, "name": "x", "runs": [entry]}


@pytest.mark.parametrize("key", ["ops_per_core", "workload_scale",
                                 "think_scale", "seed", "max_cycles"])
def test_rejects_bool_where_a_number_is_asked_for(key):
    with pytest.raises(DocumentError, match=rf"runs\[0\]\.{key} "):
        experiment_from_dict(_run(benchmark="fft", **{key: True}))
    if key != "seed":
        with pytest.raises(DocumentError, match=rf"matrix\.{key} "):
            experiment_from_dict({"schema": 1, "name": "x",
                                  "matrix": {"benchmarks": ["fft"],
                                             key: True}})


@pytest.mark.parametrize("key", ["ops_per_core", "max_cycles"])
def test_rejects_negative_ops_per_core_and_max_cycles(key):
    with pytest.raises(DocumentError, match=f"{key} must be >= 0"):
        experiment_from_dict(_run(benchmark="fft", **{key: -3}))
    with pytest.raises(DocumentError, match=f"{key} must be >= 0"):
        experiment_from_dict({"schema": 1, "name": "x",
                              "matrix": {"benchmarks": ["fft"], key: -1}})
    assert experiment_from_dict(_run(benchmark="fft", **{key: 0}))
    with pytest.raises(DocumentError, match="max_cycles must be >= 0"):
        experiment_from_dict(_run(builder="scorpio", max_cycles=-1))


def test_knobs_a_document_omits_take_the_spec_defaults():
    [spec] = experiment_from_dict(_run(benchmark="fft",
                                       workload_scale=2)).specs
    assert spec == benchmark_spec("fft", workload_scale=2.0)
    assert isinstance(spec.workload["workload_scale"], float)
    [system] = experiment_from_dict(_run(builder="scorpio")).specs
    assert system.max_cycles == 400_000


def test_the_protocol_column_is_part_of_the_key(tmp_path):
    """A protocol run and the builder run it stands for simulate the
    same system, but their rows differ in the ``protocol`` column, so
    they key apart: neither answers for (or aliases) the other."""
    knobs = {"ops_per_core": 8, "workload_scale": 0.02,
             "think_scale": 10.0, "seed": 0}
    document = {
        "schema": 1, "name": "columns",
        "configs": {"mesh": {"preset": "variant", "width": 3,
                             "height": 3}},
        "runs": [dict(benchmark="fft", protocol="lpd", config="mesh",
                      **knobs),
                 dict(builder="directory", params={"scheme": "LPD"},
                      config="mesh",
                      workload={"kind": "benchmark", "name": "fft",
                                **knobs})]}
    lpd, directory = experiment_from_dict(document).specs
    assert lpd.protocol == "lpd" and directory.protocol == ""
    assert {key: value for key, value in lpd.key().items()
            if key != "protocol"} == directory.key()
    assert lpd.fingerprint() != directory.fingerprint()

    cache = tmp_path / "cache"
    cold = run_experiment(experiment_from_dict(document), cache=str(cache))
    assert cold.cache_stats == {"hits": 0, "misses": 2}
    assert [row.protocol for row in cold.results] == ["lpd", "directory"]
    assert not any(row.cached for row in cold.results)
    rows = [row.payload() for row in cold.results]
    assert rows[0]["fingerprint"] != rows[1]["fingerprint"]
    assert {**rows[0], "fingerprint": "", "protocol": ""} \
        == {**rows[1], "fingerprint": "", "protocol": ""}

    warm = run_experiment(experiment_from_dict(document), cache=str(cache))
    assert warm.cache_stats == {"hits": 2, "misses": 0}
    assert [row.payload() for row in warm.results] == rows


@pytest.mark.parametrize("entry, complaint", [
    (dict(builder="scorpio",
          workload={"kind": "benchmark", "name": "fft",
                    "ops_per_core": "8"}),
     "workload parameter 'ops_per_core' of 'benchmark' must be int"),
    (dict(builder="scorpio",
          workload={"kind": "benchmark", "name": "fft", "seed": True}),
     "workload parameter 'seed' of 'benchmark' must be int"),
    (dict(builder="scorpio",
          workload={"kind": "benchmark", "name": "fft",
                    "think_scale": "10"}),
     "workload parameter 'think_scale' of 'benchmark' must be float"),
    (dict(builder="directory", params={"incf": 1}),
     "builder parameter 'incf' of 'directory' must be bool"),
    (dict(builder="inso", params={"expiration_window": 20.5}),
     "builder parameter 'expiration_window' of 'inso' must be int"),
])
def test_rejects_mistyped_builder_and_workload_values(entry, complaint):
    with pytest.raises(DocumentError, match=complaint):
        experiment_from_dict(_run(**entry))


def test_accepts_an_int_for_a_float_and_anything_for_an_untyped_default():
    experiment = experiment_from_dict({
        "schema": 1, "name": "x",
        "runs": [dict(builder="scorpio",
                      workload={"kind": "benchmark", "name": "fft",
                                "think_scale": 10}),
                 dict(builder="timestamp", params={"slack": 30}),
                 dict(builder="directory",
                      params={"incf": True, "incf_table_capacity": 8})]})
    assert len(experiment) == 3
