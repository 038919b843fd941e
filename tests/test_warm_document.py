"""The warm-document path: the same bytes, each piece of work once.

A warm document (every point a cache hit) costs a parse, one
fingerprint per point, one cache read per point and the envelope.  The
bytes each piece produces are held here to their reference:

* ``envelope_bytes`` against ``json.dumps(indent=2, sort_keys=True)``;
* ``fingerprint``, alone or sharing a ``KeyMemo``, against the sha256 of
  the compact ``json.dumps`` of ``{"code": ..., "spec": key}``;
* ``KeyMemo`` lives for one call: a mutated config is re-expanded by the
  next call; within a call equal workloads (by value and exact type)
  are resolved once;
* a cache entry that is not a result payload of its own name is a miss
  the next write repairs.
"""

import enum
import hashlib
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from payload_digest import specs as digest_specs
from repro.api.document import (envelope_bytes, experiment_from_dict,
                                run_experiment)
from repro.core.config import ChipConfig
from repro.experiments import SystemSpec
from repro.experiments.spec import KeyMemo
from repro.experiments.sweep import plan_points


def reference_envelope(value):
    return (json.dumps(value, indent=2, sort_keys=True) + "\n").encode()


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2 ** 70


class Table(dict):
    pass


class Row(list):
    pass


SCALARS = (st.none() | st.booleans()
           | st.integers(min_value=-2 ** 80, max_value=2 ** 80)
           | st.floats(allow_nan=True, allow_infinity=True)
           | st.text()
           | st.sampled_from(list(Level)))
KEYS = st.text()


def trees(children):
    return (st.dictionaries(KEYS, children, max_size=6)
            | st.lists(children, max_size=6)
            | st.lists(children, max_size=4).map(tuple)
            # non-str keys: the stdlib's fallback path
            | st.dictionaries(st.integers(), children, max_size=3)
            | st.dictionaries(st.floats(allow_nan=False), SCALARS,
                              max_size=3)
            | st.dictionaries(KEYS, children, max_size=3).map(Table)
            | st.lists(children, max_size=3).map(Row))


JSON = st.recursive(SCALARS, trees, max_leaves=40)


class TestEnvelopeBytes:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(JSON)
    def test_same_bytes_as_the_stdlib_indented_dump(self, value):
        assert envelope_bytes(value) == reference_envelope(value)

    def test_a_real_envelope_shape(self):
        result = {"schema": 2, "fingerprint": "ab" * 32, "benchmark": "fft",
                  "protocol": "scorpio", "n_cores": 9, "seed": 0,
                  "runtime": 700, "completed_ops": 72, "progress": 1.0,
                  "stats": {f"s.{index}": index / 7 for index in range(50)},
                  "extra": {}}
        envelope = {"schema": 1, "experiment": "e", "description": "",
                    "results": [result, dict(result, extra={"o": [[1, 2]]})],
                    "litmus": {"message-passing": True},
                    "cache": {"hits": 2, "misses": 0}}
        assert envelope_bytes(envelope) == reference_envelope(envelope)

    @pytest.mark.parametrize("value", [
        {"a": {1, 2}}, [object()], {"a": [1, {"b": b"x"}]},
        {"a": 1, 2: 3}])
    def test_the_stdlib_error(self, value):
        with pytest.raises(TypeError) as expected:
            reference_envelope(value)
        with pytest.raises(TypeError) as got:
            envelope_bytes(value)
        assert str(got.value) == str(expected.value)

    def test_a_cycle_is_the_stdlib_error(self):
        loop = {"a": [1]}
        loop["a"].append(loop)
        with pytest.raises(ValueError, match="Circular reference"):
            envelope_bytes(loop)

    def test_without_the_c_accelerator(self, monkeypatch):
        from repro.api import document

        monkeypatch.setattr(document, "c_make_encoder", None)
        value = {"a": [1, 2.5, {"b": None}], "c": "d", "e": []}
        assert envelope_bytes(value) == reference_envelope(value)


class TestFingerprint:
    def test_equals_the_reference_blob(self):
        """Every spec of the payload-digest set, alone and sharing one
        memo, hashes exactly the reference blob."""
        memo = KeyMemo()
        for spec in digest_specs():
            blob = json.dumps({"code": "x", "spec": spec.key()},
                              sort_keys=True, separators=(",", ":"))
            expected = hashlib.sha256(blob.encode("utf-8")).hexdigest()
            assert spec.fingerprint(code_version="x") == expected
            assert spec.fingerprint("x", memo) == expected


BENCH = {"kind": "benchmark", "name": "fft", "ops_per_core": 4,
         "workload_scale": 0.02, "think_scale": 10.0, "seed": 0}


class TestKeyMemoLifetime:
    def test_a_config_mutated_between_calls_changes_the_fingerprint(self):
        config = ChipConfig.variant(3, 3)
        spec = SystemSpec("scorpio", config, workload=dict(BENCH))
        [before] = plan_points([spec]).pending
        config.directory_cache_bytes *= 2
        [after] = plan_points([spec]).pending
        assert after != before
        assert after == spec.fingerprint()

    def test_equal_workloads_share_one_resolution(self, monkeypatch):
        from repro.experiments import builders

        resolved = []
        resolve = builders.resolve_workload

        def counting(workload, memo=None):
            resolved.append(dict(workload))
            return resolve(workload, memo)

        monkeypatch.setattr(builders, "resolve_workload", counting)
        config = ChipConfig.variant(3, 3)
        specs = [SystemSpec(builder, config, workload=dict(BENCH, seed=seed))
                 for builder in ("scorpio", "directory") for seed in (0, 1)]
        plan = plan_points(specs)
        assert resolved == [dict(BENCH, seed=0), dict(BENCH, seed=1)]
        assert len(plan.pending) == 4

    def test_the_memo_tells_equal_values_of_other_types_apart(self):
        config = ChipConfig.variant(3, 3)
        specs = [SystemSpec("scorpio", config, workload=dict(BENCH, seed=1)),
                 SystemSpec("scorpio", config,
                            workload=dict(BENCH, seed=True))]
        with pytest.raises(ValueError, match="'seed' of 'benchmark' must "
                                             "be int, got True"):
            plan_points(specs)

    def test_a_workload_with_an_unhashable_value_still_resolves(self):
        spec = SystemSpec("scorpio", ChipConfig.variant(3, 3),
                          workload=dict(BENCH, seed=[1]))
        with pytest.raises(ValueError, match="'seed' of 'benchmark' must "
                                             "be int, got \\[1\\]"):
            spec.key(KeyMemo())


def tiny_document():
    return {"schema": 1, "name": "warm-tiny",
            "configs": {"mesh": {"preset": "variant", "width": 3,
                                 "height": 3}},
            "runs": [{"builder": builder, "config": "mesh",
                      "workload": dict(BENCH, seed=seed)}
                     for builder in ("scorpio", "directory")
                     for seed in (0, 1)]}


def entry_path(cache_dir, fingerprint):
    return os.path.join(cache_dir, fingerprint[:2], fingerprint + ".json")


class TestPoisonedEntry:
    @pytest.mark.parametrize("poison", ["list", "schema-only",
                                        "other-entry"])
    def test_is_one_miss_resimulated_and_repaired(self, tmp_path,
                                                  monkeypatch, poison):
        from repro.experiments import sweep

        cache_dir = str(tmp_path / "cache")
        cold = run_experiment(experiment_from_dict(tiny_document()),
                              jobs=1, cache=cache_dir)
        fingerprints = [result.fingerprint for result in cold.results]
        target = entry_path(cache_dir, fingerprints[0])
        with open(target, "rb") as handle:
            original = handle.read()
        with open(entry_path(cache_dir, fingerprints[1]), "rb") as handle:
            other = handle.read()
        with open(target, "wb") as handle:
            handle.write({"list": b"[]", "schema-only": b'{"schema": 1}',
                          "other-entry": other}[poison])

        simulated = []
        execute = sweep.execute_point

        def counting(spec, fingerprint="", **kwargs):
            simulated.append(fingerprint)
            return execute(spec, fingerprint, **kwargs)

        monkeypatch.setattr(sweep, "execute_point", counting)
        warm = run_experiment(experiment_from_dict(tiny_document()),
                              jobs=1, cache=cache_dir)
        assert warm.cache_stats == {"hits": 3, "misses": 1}
        assert simulated == [fingerprints[0]]
        with open(target, "rb") as handle:
            assert handle.read() == original
        cold_envelope = cold.payload()
        warm_envelope = warm.payload()
        cold_envelope.pop("cache")
        warm_envelope.pop("cache")
        assert envelope_bytes(warm_envelope) == envelope_bytes(cold_envelope)
