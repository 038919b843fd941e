"""Round-trip property tests for the config serialization layer.

The repro.api v1 contract (src/repro/core/serialize.py): for every
config dataclass, ``from_dict(to_dict(c)) == c``, the tag-stripped dict
equals ``dataclasses.asdict`` (so fingerprints hash the same bytes),
and strict validation rejects unknown keys / wrong types / unsupported
schema versions.  Hypothesis drives each dataclass across its valid
parameter space.
"""

from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coherence.directory import DirectoryConfig
from repro.coherence.l2_controller import CacheConfig
from repro.core.config import ChipConfig
from repro.core.serialize import (CONFIG_SCHEMA, ConfigFormatError,
                                  from_dict, to_dict)
from repro.cpu.core import CoreConfig
from repro.memory.controller import MemoryConfig
from repro.noc.config import NocConfig, NotificationConfig

# ---------------------------------------------------------------------------
# Strategies over the *valid* parameter space of each dataclass
# ---------------------------------------------------------------------------

noc_configs = st.builds(
    NocConfig,
    width=st.integers(2, 8), height=st.integers(2, 8),
    channel_width_bytes=st.sampled_from([8, 16, 32]),
    goreq_vcs=st.integers(1, 8), goreq_vc_depth=st.integers(1, 4),
    uoresp_vcs=st.integers(1, 4), uoresp_vc_depth=st.integers(1, 4),
    reserved_vc=st.booleans(), lookahead_bypass=st.booleans(),
    nic_pipelined=st.booleans())

notification_configs = st.builds(
    NotificationConfig,
    bits_per_core=st.integers(1, 3), window=st.integers(1, 40),
    max_pending=st.integers(1, 8), tracker_queue_depth=st.integers(1, 8))

cache_configs = st.builds(
    CacheConfig,
    l2_size=st.sampled_from([32 * 1024, 128 * 1024]),
    l2_ways=st.sampled_from([2, 4]), l2_latency=st.integers(1, 12),
    mshrs=st.integers(1, 4), fid_list_size=st.sampled_from([36, 64]),
    l2_pipelined=st.booleans(), use_region_tracker=st.booleans(),
    region_bytes=st.sampled_from([2048, 4096]),
    region_entries=st.sampled_from([64, 128]),
    region_policy=st.sampled_from(["saturate", "evict"]),
    ordered_queue_depth=st.integers(4, 32))

memory_configs = st.builds(
    MemoryConfig,
    lookup_latency=st.integers(1, 20), dram_latency=st.integers(20, 120))

core_configs = st.builds(
    CoreConfig,
    max_outstanding=st.integers(1, 4), l1_enabled=st.booleans(),
    l1_latency=st.integers(1, 4))

directory_configs = st.builds(
    DirectoryConfig,
    scheme=st.sampled_from(["LPD", "FULLBIT", "HT"]),
    total_cache_bytes=st.sampled_from([8 * 1024, 256 * 1024]),
    n_nodes=st.sampled_from([9, 16, 36]), pointers=st.integers(1, 6),
    access_latency=st.integers(1, 20), miss_penalty=st.integers(20, 120),
    ways=st.sampled_from([2, 4]))

chip_configs = st.builds(
    ChipConfig,
    noc=noc_configs, notification=notification_configs,
    cache=cache_configs, memory=memory_configs, core=core_configs,
    mc_nodes=st.none(),
    directory_cache_bytes=st.sampled_from([8 * 1024, 256 * 1024]))

EVERY = [noc_configs, notification_configs, cache_configs, memory_configs,
         core_configs, directory_configs, chip_configs]


# ---------------------------------------------------------------------------
# The round-trip property, per dataclass
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("strategy", EVERY,
                         ids=["noc", "notification", "cache", "memory",
                              "core", "directory", "chip"])
def test_round_trip_identity(strategy):
    @settings(max_examples=40, deadline=None)
    @given(config=strategy)
    def inner(config):
        data = config.to_dict()
        assert data["schema"] == CONFIG_SCHEMA
        rebuilt = type(config).from_dict(data)
        assert rebuilt == config
        # Tag-stripped canonical form == asdict: the exact bytes the
        # experiment fingerprints hash.
        stripped = {key: value for key, value in data.items()
                    if key != "schema"}
        assert stripped == asdict(config)
        # And the round trip is idempotent at the dict level too.
        assert rebuilt.to_dict() == data

    inner()


@settings(max_examples=25, deadline=None)
@given(config=chip_configs)
def test_round_trip_preserves_fingerprint(config):
    """The acceptance guarantee: serialize -> deserialize -> fingerprint
    is the identity, so documents share cache entries with code."""
    from repro.experiments import benchmark_spec
    original = benchmark_spec("fft", config=config)
    round_tripped = benchmark_spec("fft", config=ChipConfig.from_dict(
        config.to_dict()))
    assert original.fingerprint(code_version="pinned") == \
        round_tripped.fingerprint(code_version="pinned")


def test_fingerprint_stable_for_every_chip_variant():
    from repro.experiments import SystemSpec
    for variant in (ChipConfig.chip_36core(), ChipConfig.chip_64core(),
                    ChipConfig.chip_100core(), ChipConfig.variant(3, 3)):
        spec = SystemSpec("scorpio", variant)
        rebuilt = SystemSpec("scorpio",
                             ChipConfig.from_dict(variant.to_dict()))
        assert spec.fingerprint(code_version="pinned") == \
            rebuilt.fingerprint(code_version="pinned")


def test_fingerprint_stable_for_every_registered_builder():
    """Serialize -> deserialize the config of one spec per registered
    builder; every fingerprint must survive the round trip."""
    from repro.experiments import SystemSpec, builder_names
    config = ChipConfig.variant(3, 3)
    rebuilt = ChipConfig.from_dict(config.to_dict())
    per_builder = {
        "litmus": {"name": "mp", "threads": [[["W", "x"]], [["R", "x"]]]},
    }
    for name in builder_names():
        spec = SystemSpec(name, config, params=per_builder.get(name, {}))
        twin = SystemSpec(name, rebuilt, params=per_builder.get(name, {}))
        assert spec.fingerprint(code_version="pinned") == \
            twin.fingerprint(code_version="pinned"), name


# ---------------------------------------------------------------------------
# Strictness
# ---------------------------------------------------------------------------

def test_unknown_key_rejected():
    with pytest.raises(ConfigFormatError, match="unknown key"):
        NocConfig.from_dict({"widht": 6})


def test_wrong_type_rejected():
    with pytest.raises(ConfigFormatError, match="must be an int"):
        NocConfig.from_dict({"width": "six"})
    with pytest.raises(ConfigFormatError, match="must be a bool"):
        NocConfig.from_dict({"reserved_vc": 1})
    with pytest.raises(ConfigFormatError, match="must be a list"):
        ChipConfig.from_dict({"mc_nodes": 5})


def test_bool_is_not_an_int():
    with pytest.raises(ConfigFormatError, match="must be an int"):
        NocConfig.from_dict({"width": True})


def test_unsupported_schema_rejected():
    with pytest.raises(ConfigFormatError, match="unsupported config"):
        ChipConfig.from_dict({"schema": CONFIG_SCHEMA + 1})


def test_nested_errors_name_their_path():
    with pytest.raises(ConfigFormatError, match="ChipConfig.noc"):
        ChipConfig.from_dict({"noc": {"bogus_key": 1}})


def test_constructor_validation_still_applies():
    """post_init invariants surface as ConfigFormatError too."""
    with pytest.raises(ConfigFormatError, match="mesh dimensions"):
        NocConfig.from_dict({"width": -1})


def test_a_null_sub_config_is_not_a_table():
    with pytest.raises(ConfigFormatError,
                       match="ChipConfig.noc must be a table"):
        ChipConfig.from_dict({"noc": None})


def test_asdict_output_loads_without_schema_tag():
    config = ChipConfig.chip_36core()
    assert ChipConfig.from_dict(asdict(config)) == config


def test_helpers_reject_non_dataclasses():
    with pytest.raises(TypeError):
        to_dict({"not": "a dataclass"})
    with pytest.raises(TypeError):
        from_dict(dict, {})
