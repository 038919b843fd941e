"""Every door, same bytes — and the plan they all share.

One tiny document that mixes a ``benchmark=``/``protocol=`` run, a
``builder=`` run, an exact repeat of it and a litmus point goes through
every way the tree can execute it: ``run_experiment`` (serial uncached,
pooled against a cold cache, warm), the checkpointed executor, a
mid-run snapshot resumed by ``repro run-file --resume`` in a fresh
interpreter, and an in-process ``repro serve``.  The envelopes must be
the same bytes once the ``cache`` key is set aside, and the ``cache``
key itself must agree between ``run_experiment`` and ``serve`` on equal
cache state.

The second part pins :func:`repro.experiments.plan_points` directly,
with a recording ``lookup`` in place of a cache; the third pins the
front door — ``execute_point`` and ``run_sweep`` of a ``benchmark_spec``
and the equivalent builder ``SystemSpec`` return the same row of the one
result class.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.api import envelope_bytes, run_experiment
from repro.api.client import ServeClient
from repro.api.document import experiment_from_dict
from repro.core.api import RunResult
from repro.core.config import ChipConfig
from repro.experiments import (SweepResult, SystemSpec, benchmark_spec,
                               execute_point, plan_points,
                               run_experiment_checkpointed, run_sweep,
                               snapshot_spec)
from repro.serve import serve

KNOBS = dict(ops_per_core=8, workload_scale=0.02, think_scale=10.0)
BUILDER_RUN = {"builder": "scorpio", "config": "mesh",
               "workload": {"kind": "benchmark", "name": "fft",
                            "ops_per_core": 8, "workload_scale": 0.02,
                            "think_scale": 10.0, "seed": 1}}
DOCUMENT = {
    "schema": 1,
    "name": "one-pipeline",
    "configs": {"mesh": {"preset": "variant", "width": 3, "height": 3}},
    "runs": [
        dict(benchmark="fft", protocol="lpd", config="mesh", seed=0,
             label="protocol-run", **KNOBS),
        dict(BUILDER_RUN, label="builder-run"),
        dict(BUILDER_RUN, label="builder-run-again"),
    ],
    "litmus": {"programs": ["message-passing"], "seeds": [0]},
}
POINTS = 4


@pytest.fixture(autouse=True)
def isolated_environment(monkeypatch):
    """Shield the ``repro`` doors these tests drive (in process and as
    a child interpreter) from an exported REPRO_JOBS / REPRO_CACHE_DIR."""
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)


def envelope(result) -> bytes:
    return envelope_bytes(result.payload())


def without_cache(envelope_: bytes) -> bytes:
    payload = json.loads(envelope_)
    payload.pop("cache", None)
    return envelope_bytes(payload)


def cache_key(envelope_: bytes):
    return json.loads(envelope_).get("cache")


def test_every_door_produces_the_same_envelope(tmp_path, source_snapshot):
    experiment = experiment_from_dict(DOCUMENT)
    reference = envelope(run_experiment(experiment, jobs=1, cache=False))
    assert cache_key(reference) is None
    rows = json.loads(reference)["results"]
    assert len(rows) == POINTS and rows[1] == rows[2]
    assert json.loads(reference)["litmus"] == {"message-passing": True}

    # run_experiment: pooled against a cold cache, then warm.
    cache_dir = str(tmp_path / "local-cache")
    cold = envelope(run_experiment(experiment, jobs=2, cache=cache_dir))
    warm = envelope(run_experiment(experiment, jobs=2, cache=cache_dir))
    assert without_cache(cold) == without_cache(warm) == reference
    assert cache_key(cold) == {"hits": 0, "misses": POINTS}
    assert cache_key(warm) == {"hits": POINTS, "misses": 0}

    # The checkpointed executor (the repeated run simulates once: one
    # snapshot per distinct fingerprint).
    checkpoints = tmp_path / "checkpoints"
    sliced = run_experiment_checkpointed(experiment, checkpoint_every=50,
                                         checkpoint_dir=str(checkpoints))
    assert envelope(sliced) == reference
    assert [r.cached for r in sliced.results] == [False, False, True, False]
    assert len(list(checkpoints.glob("*.ckpt"))) == POINTS - 1

    # A mid-run snapshot of the protocol run, resumed through the CLI in
    # a fresh interpreter.
    spec = experiment.specs[0]
    system = spec.build()
    system.run_until_done(50)
    assert not system.all_cores_finished()
    snapshot = tmp_path / "mid-run.ckpt"
    snapshot_spec(spec, system, str(snapshot),
                  fingerprint=sliced.results[0].fingerprint)
    document_path = tmp_path / "one-pipeline.json"
    document_path.write_text(json.dumps(DOCUMENT), encoding="utf-8")
    resumed_path = tmp_path / "resumed.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(source_snapshot) + os.pathsep
                         + env.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "run-file", str(document_path),
         "--resume", str(snapshot),
         "--checkpoint-dir", str(tmp_path / "resumed-checkpoints"),
         "--output", str(resumed_path)],
        capture_output=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert resumed_path.read_bytes() == reference

    # repro serve, in process: same bytes *and* the same cache key as
    # run_experiment on equal cache state.
    server = serve(tmp_path / "serve-cache", port=0, workers=2).start()
    try:
        client = ServeClient(server.url)
        assert client.run(DOCUMENT, timeout=120.0).envelope == cold
        assert client.run(DOCUMENT, timeout=120.0).envelope == warm
    finally:
        server.stop()


# ---------------------------------------------------------------------------
# plan_points
# ---------------------------------------------------------------------------

def run_spec(seed=0, label=""):
    return benchmark_spec("fft", "scorpio", ChipConfig.variant(3, 3),
                          seed=seed, label=label, **KNOBS)


def stored_payload(spec, label="whoever-filled-the-cache"):
    """A cache entry for *spec* (outcome numbers made up: the plan never
    looks inside)."""
    return SweepResult(fingerprint=spec.fingerprint(),
                       benchmark=spec.benchmark_name,
                       protocol=spec.protocol_name, n_cores=9,
                       seed=spec.seed_value(), runtime=123,
                       completed_ops=72, progress=1.0,
                       stats={"l2.hits": 1.0}, label=label).payload()


class RecordingLookup:
    def __init__(self, *stored_specs):
        self.store = {spec.fingerprint(): stored_payload(spec)
                      for spec in stored_specs}
        self.asked = []

    def __call__(self, fingerprint):
        self.asked.append(fingerprint)
        return self.store.get(fingerprint)


def test_plan_asks_once_per_fingerprint_and_keeps_spec_order():
    system_spec = SystemSpec("scorpio", ChipConfig.variant(3, 3),
                             workload=BUILDER_RUN["workload"], label="d")
    specs = [run_spec(0, "a"), run_spec(1, "b"), run_spec(0, "a-again"),
             system_spec, run_spec(1, "b-again")]
    fp = [spec.fingerprint() for spec in specs]
    lookup = RecordingLookup(specs[1])

    plan = plan_points(specs, lookup)

    # one lookup per distinct fingerprint, in first-seen order
    assert lookup.asked == [fp[0], fp[1], fp[3]]
    # one miss per requested point the cache did not answer
    assert (plan.hits, plan.misses) == (2, 3)
    assert plan.pending == {fp[0]: [0, 2], fp[3]: [3]}
    assert plan.to_run() == [(fp[0], specs[0]), (fp[3], system_spec)]
    # hits are filled, in place, with the *requesting* spec's label
    assert [result is not None for result in plan.results] \
        == [False, True, False, False, True]
    assert [plan.results[i].label for i in (1, 4)] == ["b", "b-again"]
    assert all(plan.results[i].cached for i in (1, 4))
    assert plan.results[1].payload() == lookup.store[fp[1]]

    # resolve fills every index the fingerprint answers; only the
    # aliases are marked cached
    assert plan.resolve(fp[0], stored_payload(specs[0])) == [0, 2]
    assert [plan.results[i].cached for i in (0, 2)] == [False, True]
    assert [plan.results[i].label for i in (0, 2)] == ["a", "a-again"]
    assert plan.results[3] is None
    plan.resolve(fp[3], stored_payload(system_spec))
    assert [result.fingerprint for result in plan.results] == fp


def test_plan_without_a_lookup_still_deduplicates():
    specs = [run_spec(0, "a"), run_spec(0, "b"), run_spec(1)]
    plan = plan_points(specs)
    assert (plan.hits, plan.misses) == (0, 3)
    assert list(plan.pending.values()) == [[0, 1], [2]]
    assert plan.results == [None, None, None]


# ---------------------------------------------------------------------------
# The front door
# ---------------------------------------------------------------------------

def without(payload, *keys):
    return json.dumps({key: value for key, value in payload.items()
                       if key not in keys})


def test_one_result_class():
    assert RunResult is SweepResult


@pytest.mark.parametrize("protocol", ["scorpio", "lpd", "ht", "fullbit"])
def test_front_doors_return_the_same_row(protocol):
    config = ChipConfig.variant(3, 3)
    direct = execute_point(benchmark_spec("fft", protocol, config, **KNOBS))
    [swept] = run_sweep([benchmark_spec("fft", protocol, config, **KNOBS)],
                        cache=False)
    builder, params = ("scorpio", {}) if protocol == "scorpio" \
        else ("directory", {"scheme": protocol.upper()})
    [system] = run_sweep([SystemSpec(
        builder, config, params=params,
        workload={"kind": "benchmark", "name": "fft", "seed": 0, **KNOBS})],
        cache=False)

    assert direct.fingerprint == "" and len(swept.fingerprint) == 64
    reference = without(direct.payload(), "fingerprint")
    assert without(swept.payload(), "fingerprint") == reference
    assert without(system.payload(), "fingerprint", "protocol") \
        == without(direct.payload(), "fingerprint", "protocol")
    assert system.protocol == builder
    # the row is its own (de)serialisation, readers included
    recalled = RunResult.from_payload(swept.payload())
    assert recalled == swept and recalled.payload() == swept.payload()
    assert recalled.breakdown() == direct.breakdown()
    assert recalled.avg_l2_service_latency == direct.avg_l2_service_latency


def test_cache_recall_equals_the_fresh_row(tmp_path):
    spec = run_spec()
    [fresh] = run_sweep([spec], cache=tmp_path)
    [recalled] = run_sweep([spec], cache=tmp_path)
    assert (fresh.cached, recalled.cached) == (False, True)
    assert recalled == fresh


def test_profile_object_goes_through_every_front_door():
    from repro.workloads.synthetic import WorkloadProfile
    profile = WorkloadProfile(name="custom", private_lines=64,
                              shared_lines=16, think_mean=40)
    config = ChipConfig.variant(3, 3)
    direct = execute_point(benchmark_spec(profile, "scorpio", config,
                                          ops_per_core=8))
    pooled = run_sweep([benchmark_spec(profile, "scorpio", config,
                                       ops_per_core=8, seed=seed)
                        for seed in (0, 1)],
                       jobs=2, cache=False)
    assert direct.benchmark == "custom" and direct.progress == 1.0
    assert [row.benchmark for row in pooled] == ["custom", "custom"]
    assert without(pooled[0].payload(), "fingerprint") \
        == without(direct.payload(), "fingerprint")
