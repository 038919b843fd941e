"""The experiment orchestration layer: specs, cache, sweep runner."""

import json

import pytest

from repro.core.api import RunResult, compare_protocols, run_benchmark
from repro.core.config import ChipConfig
from repro.experiments import (ResultCache, RunSpec, Sweep, as_cache,
                               code_version, executing, run_sweep)

# A deliberately tiny regime so every test runs in well under a second
# per simulation.
KNOBS = dict(ops_per_core=8, workload_scale=0.02, think_scale=10.0)


@pytest.fixture(autouse=True)
def isolated_execution_context(monkeypatch):
    """Shield these tests from an exported REPRO_JOBS/REPRO_CACHE_DIR:
    run_sweep falls back to the process context, and an ambient cache
    directory would both change behaviour and be polluted."""
    import repro.experiments.context as context
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.setattr(context, "_context", context.ExecutionContext())


def tiny_spec(**overrides):
    params = dict(benchmark="fft", protocol="scorpio",
                  config=ChipConfig.variant(3, 3), seed=0, **KNOBS)
    params.update(overrides)
    return RunSpec(**params)


def canonical(results):
    """Byte-exact serialized form of a list of SweepResults."""
    return json.dumps([r.payload() for r in results], sort_keys=True)


class TestFingerprint:
    def test_stable_across_calls(self):
        assert tiny_spec().fingerprint() == tiny_spec().fingerprint()

    def test_config_change_changes_fingerprint(self):
        wide = tiny_spec(config=ChipConfig.variant(3, 3, goreq_vcs=6))
        assert tiny_spec().fingerprint() != wide.fingerprint()

    def test_every_knob_is_keyed(self):
        base = tiny_spec().fingerprint()
        assert tiny_spec(seed=1).fingerprint() != base
        assert tiny_spec(ops_per_core=9).fingerprint() != base
        assert tiny_spec(think_scale=11.0).fingerprint() != base
        assert tiny_spec(max_cycles=123_456).fingerprint() != base
        assert tiny_spec(benchmark="lu").fingerprint() != base
        assert tiny_spec(protocol="lpd").fingerprint() != base

    def test_code_version_is_keyed(self):
        spec = tiny_spec()
        assert spec.fingerprint(code_version="aaa") \
            != spec.fingerprint(code_version="bbb")

    def test_label_is_not_keyed(self):
        assert tiny_spec(label="x").fingerprint() == tiny_spec().fingerprint()

    def test_profile_object_equals_name(self):
        from repro.workloads.suites import profile
        assert tiny_spec(benchmark=profile("fft")).fingerprint() \
            == tiny_spec(benchmark="fft").fingerprint()


def stored(fingerprint):
    """A result payload as the sweep stores it under *fingerprint*."""
    return RunResult("scorpio", "fft", 9, 100, 72, 1.0,
                     fingerprint=fingerprint).payload()


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("ab" * 32) is None
        cache.put("ab" * 32, stored("ab" * 32))
        assert cache.get("ab" * 32) == stored("ab" * 32)
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}

    def test_corrupt_file_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("cd" * 32, stored("cd" * 32))
        cache.backend._path("cd" * 32).write_text("{truncated",
                                                  encoding="utf-8")
        assert cache.get("cd" * 32) is None

    def test_empty_cache_is_not_falsy(self, tmp_path):
        # run_sweep guards with `is not None`; an empty cache must still
        # count as "caching enabled".
        assert as_cache(tmp_path) is not None
        assert bool(as_cache(tmp_path))

    def test_as_cache_coercions(self, tmp_path):
        assert as_cache(None) is None
        assert as_cache(False) is None
        cache = ResultCache(tmp_path)
        assert as_cache(cache) is cache
        assert as_cache(str(tmp_path)).backend.directory == tmp_path


class TestSweepExpansion:
    def test_matrix_order_and_size(self):
        sweep = Sweep(benchmarks=("fft", "lu"), protocols=("lpd", "scorpio"),
                      seeds=(0, 1))
        specs = sweep.expand()
        assert len(specs) == len(sweep) == 8
        assert [(s.benchmark, s.protocol, s.seed) for s in specs[:3]] == [
            ("fft", "lpd", 0), ("fft", "lpd", 1), ("fft", "scorpio", 0)]

    def test_labelled_configs(self):
        configs = {"base": ChipConfig.variant(3, 3),
                   "wide": ChipConfig.variant(3, 3, goreq_vcs=6)}
        sweep = Sweep(benchmarks=("fft",), configs=configs)
        assert [s.label for s in sweep.expand()] == ["base", "wide"]


class TestRunSweep:
    def test_matches_run_benchmark(self):
        spec = tiny_spec()
        direct = run_benchmark("fft", protocol="scorpio",
                               config=ChipConfig.variant(3, 3), **KNOBS)
        [swept] = run_sweep([spec], cache=False)
        assert swept.runtime == direct.runtime
        assert swept.stats == direct.stats
        assert swept.breakdown() == direct.breakdown()

    def test_uncached_results_still_carry_fingerprints(self):
        # Regression: the uncached path used to elide fingerprints as "",
        # producing result envelopes that could never be matched back to
        # the point that produced them.
        spec = tiny_spec()
        [swept] = run_sweep([spec], cache=False)
        assert swept.fingerprint == spec.fingerprint(
            code_version=code_version())
        assert swept.payload()["fingerprint"] == swept.fingerprint

    def test_uncached_fingerprint_matches_cached_identity(self, tmp_path):
        # The same point swept uncached and cached must report the same
        # identity, so later cache lookups can recognise archived
        # envelopes.
        [uncached] = run_sweep([tiny_spec()], cache=False)
        [cached] = run_sweep([tiny_spec()], cache=tmp_path)
        assert uncached.fingerprint == cached.fingerprint

    def test_cache_hit_is_byte_identical_to_fresh_run(self, tmp_path):
        specs = [tiny_spec(), tiny_spec(protocol="lpd")]
        fresh = run_sweep(specs, cache=tmp_path)
        assert [r.cached for r in fresh] == [False, False]
        recalled = run_sweep(specs, cache=tmp_path)
        assert [r.cached for r in recalled] == [True, True]
        assert canonical(recalled) == canonical(fresh)

    def test_parallel_agrees_with_serial(self, tmp_path):
        sweep = Sweep(benchmarks=("fft", "lu"),
                      protocols=("lpd", "scorpio"),
                      configs=ChipConfig.variant(3, 3), seeds=(0, 1),
                      **KNOBS)
        serial = run_sweep(sweep, jobs=1, cache=False)
        parallel = run_sweep(sweep, jobs=4, cache=False)
        assert canonical(parallel) == canonical(serial)

    def test_parallel_populates_the_same_cache(self, tmp_path):
        sweep = Sweep(benchmarks=("fft",), protocols=("lpd", "scorpio"),
                      configs=ChipConfig.variant(3, 3), **KNOBS)
        run_sweep(sweep, jobs=2, cache=tmp_path)
        recalled = run_sweep(sweep, jobs=1, cache=tmp_path)
        assert all(r.cached for r in recalled)

    def test_duplicate_specs_simulate_once_within_a_batch(self, tmp_path,
                                                          monkeypatch):
        cache = ResultCache(tmp_path)
        results = run_sweep([tiny_spec(label="a"), tiny_spec(label="b")],
                            cache=cache)
        # one lookup, one simulation, second occurrence aliased to it
        assert cache.misses == 1 and cache.stats()["entries"] == 1
        assert [r.cached for r in results] == [False, True]
        assert results[0].payload() == results[1].payload()
        assert (results[0].label, results[1].label) == ("a", "b")

        # ... and the same without a cache, serial or pooled: the plan
        # deduplicates by fingerprint, not the cache.
        import repro.experiments.sweep as sweep_mod
        real_worker = sweep_mod._pool_worker
        simulated = []
        monkeypatch.setattr(
            sweep_mod, "_pool_worker",
            lambda item: simulated.append(item[1]) or real_worker(item))
        specs = [tiny_spec(label="a"), tiny_spec(seed=1),
                 tiny_spec(label="b")]
        for jobs in (1, 2):
            uncached = run_sweep(specs, jobs=jobs, cache=False)
            assert [r.cached for r in uncached] == [False, False, True]
            assert uncached[0].payload() == uncached[2].payload() \
                == results[0].payload()
            assert [r.label for r in uncached] == ["a", "", "b"]
        # (counted in the serial pass only: pooled points run in worker
        # processes, where the recorder's list is a copy)
        assert len(simulated) == 2

    def test_cache_hit_carries_the_requesting_label(self, tmp_path):
        # label is display bookkeeping, not part of the fingerprint: a
        # recall must report the *current* spec's label, not whichever
        # label first populated the cache.
        run_sweep([tiny_spec(label="first")], cache=tmp_path)
        [result] = run_sweep([tiny_spec(label="second")], cache=tmp_path)
        assert result.cached
        assert result.label == "second"

    def test_cache_invalidates_when_config_changes(self, tmp_path):
        run_sweep([tiny_spec()], cache=tmp_path)
        changed = tiny_spec(
            config=ChipConfig.variant(3, 3, goreq_vcs=6))
        [result] = run_sweep([changed], cache=tmp_path)
        assert not result.cached

    def test_cache_invalidates_when_code_version_changes(self, tmp_path,
                                                         monkeypatch):
        run_sweep([tiny_spec()], cache=tmp_path)
        monkeypatch.setattr("repro.experiments.sweep.code_version",
                            lambda: "different-source-digest")
        [result] = run_sweep([tiny_spec()], cache=tmp_path)
        assert not result.cached

    def test_results_keep_spec_order_with_partial_hits(self, tmp_path):
        warm = tiny_spec(protocol="lpd")
        run_sweep([warm], cache=tmp_path)
        results = run_sweep([tiny_spec(), warm, tiny_spec(seed=3)],
                            cache=tmp_path)
        assert [r.cached for r in results] == [False, True, False]
        assert [r.protocol for r in results] == ["scorpio", "lpd",
                                                 "scorpio"]
        assert results[2].seed == 3


class TestCompareIntegration:
    def test_sweep_compare_matches_serial_compare_protocols(self, tmp_path):
        config = ChipConfig.variant(3, 3)
        serial = compare_protocols("fft", ("lpd", "scorpio"), config=config,
                                   **KNOBS)
        # jobs=2 + cold cache, then a pure-cache recall: all three paths
        # must agree exactly.
        with executing(jobs=2, cache=tmp_path):
            pooled = compare_protocols("fft", ("lpd", "scorpio"),
                                       config=config, **KNOBS)
            recalled = compare_protocols("fft", ("lpd", "scorpio"),
                                         config=config, **KNOBS)
        for proto in ("lpd", "scorpio"):
            assert pooled[proto] == serial[proto]
            assert recalled[proto] == serial[proto]


class TestContext:
    def test_environment_defaults(self, monkeypatch, tmp_path):
        from repro.experiments.context import ExecutionContext
        monkeypatch.setenv("REPRO_JOBS", "5")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        ctx = ExecutionContext.from_environment()
        assert ctx.jobs == 5
        assert ctx.cache.backend.directory == tmp_path

    def test_executing_restores_previous_context(self):
        from repro.experiments import get_context
        before = get_context()
        with executing(jobs=7):
            assert get_context().jobs == 7
        assert get_context() is before


class TestCodeVersion:
    def test_memoized_and_plausible(self):
        version = code_version()
        assert version == code_version()
        assert len(version) == 64
        int(version, 16)
