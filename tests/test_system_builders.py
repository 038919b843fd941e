"""The system-builder registry: SystemSpec fingerprints, sweep/cache
integration for arbitrary systems, and the rewired figure consumers."""

import json

import pytest

from repro.core.config import ChipConfig
from repro.experiments import (ResultCache, RunSpec, SystemSpec,
                               builder_names, execute_system_spec,
                               executing, get_builder, list_builders,
                               resolve_workload, run_sweep)

TINY_BENCH = {"kind": "benchmark", "name": "fft", "ops_per_core": 8,
              "workload_scale": 0.02, "think_scale": 10.0, "seed": 0}


@pytest.fixture(autouse=True)
def isolated_execution_context(monkeypatch):
    """Shield these tests from an exported REPRO_JOBS/REPRO_CACHE_DIR."""
    import repro.experiments.context as context
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.setattr(context, "_context", context.ExecutionContext())


def tiny_system(**overrides):
    params = dict(builder="inso", config=ChipConfig.variant(3, 3),
                  workload=dict(TINY_BENCH))
    params.update(overrides)
    return SystemSpec(**params)


def canonical(results):
    return json.dumps([r.payload() for r in results], sort_keys=True)


class TestRegistry:
    def test_expected_builders_registered(self):
        for name in ("scorpio", "directory", "multimesh", "tokenb",
                     "inso", "timestamp", "uncorq", "litmus"):
            assert name in builder_names()

    def test_list_builders_is_introspectable(self):
        rows = {name: (description, defaults)
                for name, description, defaults in list_builders()}
        assert set(rows) == set(builder_names())
        description, defaults = rows["inso"]
        assert "INSO" in description
        assert defaults["expiration_window"] == 20

    def test_unknown_builder_raises(self):
        with pytest.raises(KeyError, match="unknown system builder"):
            get_builder("tokenring")
        with pytest.raises(KeyError, match="unknown system builder"):
            tiny_system(builder="tokenring").fingerprint(code_version="x")
        with pytest.raises(KeyError, match="unknown system builder"):
            run_sweep([tiny_system(builder="tokenring")], cache=False)

    def test_unknown_builder_param_raises(self):
        spec = tiny_system(params={"expiry_window": 40})
        with pytest.raises(ValueError, match="unknown builder parameter"):
            spec.fingerprint(code_version="x")

    def test_missing_required_param_raises(self):
        spec = SystemSpec(builder="litmus", params={"protocol": "scorpio"})
        with pytest.raises(ValueError, match="requires"):
            spec.fingerprint(code_version="x")


class TestWorkloads:
    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown workload kind"):
            resolve_workload({"kind": "pointer-chase"})

    def test_unknown_workload_param_raises(self):
        with pytest.raises(ValueError, match="unknown workload parameter"):
            resolve_workload({"kind": "locks", "acqs": 2})

    def test_benchmark_key_embeds_resolved_profile(self):
        key = resolve_workload(dict(TINY_BENCH)).key
        assert key["profile"]["name"] == "fft"
        assert key["ops_per_core"] == 8

    def test_lone_write_places_single_store(self):
        resolved = resolve_workload({"kind": "lone_write", "node": 2})
        traces = resolved.build_traces(9)
        assert [len(t) for t in traces] == [0, 0, 1] + [0] * 6

    def test_lone_write_node_bounds_checked(self):
        resolved = resolve_workload({"kind": "lone_write", "node": 9})
        with pytest.raises(ValueError, match="outside"):
            resolved.build_traces(9)


class TestFingerprint:
    def test_defaults_merge_into_the_key(self):
        # Omitting a param and passing its default must fingerprint
        # identically — otherwise the cache splits on spelling.
        explicit = tiny_system(params={"expiration_window": 20})
        assert tiny_system().fingerprint(code_version="x") \
            == explicit.fingerprint(code_version="x")

    def test_builder_kwargs_are_keyed(self):
        assert tiny_system().fingerprint(code_version="x") != tiny_system(
            params={"expiration_window": 80}).fingerprint(code_version="x")

    def test_workload_config_and_builder_are_keyed(self):
        base = tiny_system().fingerprint(code_version="x")
        other_workload = dict(TINY_BENCH, seed=5)
        assert tiny_system(workload=other_workload).fingerprint(
            code_version="x") != base
        assert tiny_system(builder="tokenb").fingerprint(
            code_version="x") != base
        assert tiny_system(config=ChipConfig.variant(
            3, 3, goreq_vcs=6)).fingerprint(code_version="x") != base

    def test_label_is_not_keyed(self):
        assert tiny_system(label="a").fingerprint(code_version="x") \
            == tiny_system().fingerprint(code_version="x")

    def test_config_mutation_between_calls_is_seen(self):
        # ChipConfig is mutable, so nothing may remember its expansion
        # from one fingerprint() call to the next.
        spec = tiny_system()
        before = spec.fingerprint(code_version="x")
        spec.config.noc.goreq_vcs += 2
        assert spec.fingerprint(code_version="x") != before

    def test_memo_shares_expansions_without_changing_the_key(self):
        from repro.experiments.spec import KeyMemo
        config = ChipConfig.variant(3, 3)
        specs = [tiny_system(config=config),
                 tiny_system(config=config, builder="tokenb"),
                 RunSpec(benchmark="fft", config=config),
                 RunSpec(benchmark="fft")]           # default config
        memo = KeyMemo()
        for spec in specs:
            assert spec.key(memo) == spec.key()
            assert spec.fingerprint("x", memo) == spec.fingerprint("x")
        assert specs[0].key(memo)["config"] is specs[1].key(memo)["config"]


class TestSweepIntegration:
    def test_cache_hit_is_byte_identical_and_runs_nothing(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = [tiny_system(), tiny_system(builder="tokenb")]
        fresh = run_sweep(specs, cache=cache)
        assert [r.cached for r in fresh] == [False, False]
        recalled = run_sweep(specs, cache=cache)
        assert [r.cached for r in recalled] == [True, True]
        assert canonical(recalled) == canonical(fresh)

    def test_cache_invalidates_when_builder_kwargs_change(self, tmp_path):
        run_sweep([tiny_system()], cache=tmp_path)
        [changed] = run_sweep([tiny_system(
            params={"expiration_window": 80})], cache=tmp_path)
        assert not changed.cached

    def test_parallel_agrees_with_serial(self):
        specs = [tiny_system(label="a"),
                 tiny_system(builder="scorpio", label="b"),
                 tiny_system(builder="directory",
                             params={"scheme": "HT"}, label="c")]
        serial = run_sweep(specs, jobs=1, cache=False)
        parallel = run_sweep(specs, jobs=3, cache=False)
        assert canonical(parallel) == canonical(serial)

    def test_mixed_batch_with_runspecs(self, tmp_path):
        # RunSpec and SystemSpec points share one batch, pool, and cache.
        mixed = [RunSpec(benchmark="fft", protocol="scorpio",
                         config=ChipConfig.variant(3, 3), ops_per_core=8,
                         workload_scale=0.02, think_scale=10.0),
                 tiny_system()]
        fresh = run_sweep(mixed, jobs=2, cache=tmp_path)
        assert [r.protocol for r in fresh] == ["scorpio", "inso"]
        recalled = run_sweep(mixed, cache=tmp_path)
        assert all(r.cached for r in recalled)
        assert canonical(recalled) == canonical(fresh)

    def test_extra_payload_round_trips_through_cache(self, tmp_path):
        spec = SystemSpec(
            builder="litmus", config=ChipConfig.variant(3, 3),
            params={"name": "mp",
                    "threads": [[["W", "x"], ["W", "y"]],
                                [["R", "y"], ["R", "x"]]]})
        [fresh] = run_sweep([spec], cache=tmp_path)
        [recalled] = run_sweep([spec], cache=tmp_path)
        assert recalled.cached
        assert recalled.extra == fresh.extra
        assert fresh.extra["observations"]

    def test_litmus_results_report_the_program_name(self, tmp_path):
        # An idle workload must not mask the program name: explicit
        # {"kind": "idle"} and an omitted workload fingerprint the same
        # and must display the same.
        from repro.verification.litmus import MESSAGE_PASSING, litmus_spec
        spec = litmus_spec(MESSAGE_PASSING)
        assert spec.benchmark_name == "message-passing"
        bare = SystemSpec(builder="litmus", config=spec.config,
                          params=dict(spec.params),
                          max_cycles=spec.max_cycles)
        assert bare.fingerprint(code_version="x") \
            == spec.fingerprint(code_version="x")
        [result] = run_sweep([spec], cache=tmp_path)
        assert result.benchmark == "message-passing"

    def test_system_runs_match_direct_execution(self):
        spec = tiny_system()
        direct = execute_system_spec(spec)
        [swept] = run_sweep([spec], cache=False)
        assert swept.runtime == direct.runtime
        assert swept.stats == direct.stats
        assert swept.protocol == "inso"
        assert swept.benchmark == "fft"


class TestCompareSystems:
    def test_labels_order_and_metrics(self):
        from repro.analysis.comparison import compare_systems
        results = compare_systems(
            {"SCORPIO": ("scorpio", {}),
             "TS": ("timestamp", {})},
            workload=dict(TINY_BENCH),
            config=ChipConfig.variant(3, 3))
        assert list(results) == ["SCORPIO", "TS"]
        assert results["TS"].stats["system.reorder_buffer_peak"] > 0
        assert results["SCORPIO"].runtime > 0


class TestFigureConsumers:
    """The rewired figures: parallel == serial byte-identity and a warm
    cache rerun that performs zero simulation runs."""

    @pytest.mark.parametrize("fig_id", ["fig7", "incf", "locks", "sec2"])
    def test_parallel_and_cached_match_serial(self, fig_id, tmp_path,
                                              tiny_regime):
        from repro.analysis.figures import generate
        serial = generate(fig_id, tiny_regime)
        with executing(jobs=3):
            parallel = generate(fig_id, tiny_regime)
        assert parallel == serial
        with executing(cache=str(tmp_path)) as ctx:
            cold = generate(fig_id, tiny_regime)
            hits_after_cold = ctx.cache.hits
            warm = generate(fig_id, tiny_regime)
            assert cold == warm == serial
            # The warm pass answered every point from the cache: no new
            # misses, one hit per point.
            assert ctx.cache.misses == ctx.cache.entries()
            assert ctx.cache.hits == hits_after_cold \
                + ctx.cache.entries()
