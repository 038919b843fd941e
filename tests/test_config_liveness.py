"""Every leaf field of the ``ChipConfig`` tree changes what is simulated.

A leaf field holds a value rather than a nested config.  ``ROWS`` gives each
field a changed value and a small point — a builder and a workload on a
3x3 mesh, plus settings both sides share — and the payload, fingerprint
aside, must differ from the default's on that point.  A VC holds one
packet, so the two VC-depth fields change no simulation; they must move
the area model instead.  A field with no row fails: a field that changes
nothing should not exist, and a new one needs a row.
"""

import dataclasses
import json
import typing
from typing import Any, Dict, NamedTuple

import pytest

from repro.analysis.area_power import tile_budget
from repro.api import DocumentError, experiment_from_dict
from repro.core.config import ChipConfig
from repro.experiments.builders import SystemSpec, build_spec_system
from repro.experiments.sweep import execute_point

FFT = {"kind": "benchmark", "name": "fft", "ops_per_core": 8,
       "workload_scale": 0.02, "think_scale": 1.0}
LOCKS = {"kind": "locks"}
BARRIER = {"kind": "barrier"}
# Every default run here ends within 3,000 cycles; a changed one that
# deadlocks (no reserved VC) stops here.
MAX_CYCLES = 20_000


class Row(NamedTuple):
    value: Any
    builder: str = "scorpio"
    workload: Dict[str, Any] = FFT
    base: Dict[str, Any] = {}     # settings the default shares


ROWS: Dict[str, Row] = {
    "noc.width": Row(2),
    "noc.height": Row(2),
    "noc.channel_width_bytes": Row(8),
    "noc.line_size_bytes": Row(64),
    "noc.goreq_vcs": Row(1),
    "noc.uoresp_vcs": Row(1),
    "noc.reserved_vc": Row(False),          # deadlocks without the rVC
    "noc.lookahead_bypass": Row(False),
    "noc.nic_pipelined": Row(False),
    "notification.bits_per_core": Row(2),
    "notification.window": Row(20),
    "notification.max_pending": Row(1),
    "notification.tracker_queue_depth": Row(1),
    "cache.l2_size": Row(128),
    "cache.l2_ways": Row(1, base={"cache.l2_size": 512}),
    "cache.l2_latency": Row(20),
    "cache.mshrs": Row(1),
    "cache.fid_list_size": Row(1, workload=LOCKS),
    "cache.l2_pipelined": Row(False, workload=BARRIER),
    "cache.use_region_tracker": Row(False),
    "cache.region_bytes": Row(64),
    "cache.region_entries": Row(1),
    "cache.region_policy": Row("evict", base={"cache.region_entries": 1}),
    "cache.ordered_queue_depth": Row(1, base={"cache.l2_pipelined": False}),
    "memory.lookup_latency": Row(20),
    "memory.dram_latency": Row(40),
    "core.max_outstanding": Row(1),
    "core.l1_enabled": Row(False),
    "core.l1_latency": Row(200, workload=BARRIER),
    "mc_nodes": Row([4]),
    "directory_cache_bytes": Row(256, builder="directory"),
}
AREA_ONLY = {"noc.goreq_vc_depth": 2, "noc.uoresp_vc_depth": 6}


def leaf_fields(cls, prefix=""):
    """Dotted paths of the leaf fields of config class *cls*."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        sub = hints[f.name]
        if dataclasses.is_dataclass(sub):
            yield from leaf_fields(sub, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name


def chip(settings):
    """The 3x3 chip with *settings* ({dotted path: value}) applied; the
    memory controllers follow the mesh dimensions unless given."""
    data = ChipConfig.variant(3, 3).to_dict()
    data["mc_nodes"] = None
    for path, value in settings.items():
        *parents, leaf = path.split(".")
        node = data
        for key in parents:
            node = node[key]
        node[leaf] = value
    return ChipConfig.from_dict(data)


_payloads: Dict[str, dict] = {}


def payload(row: Row, settings) -> dict:
    key = json.dumps([row.builder, row.workload, settings], sort_keys=True)
    if key not in _payloads:
        spec = SystemSpec(row.builder, chip(settings),
                          workload=dict(row.workload), max_cycles=MAX_CYCLES)
        result = execute_point(spec).payload()
        result.pop("fingerprint")
        _payloads[key] = result
    return _payloads[key]


def test_every_leaf_field_has_a_row():
    assert sorted(leaf_fields(ChipConfig)) == sorted([*ROWS, *AREA_ONLY])


@pytest.mark.parametrize("path", sorted(ROWS))
def test_field_changes_the_run(path):
    row = ROWS[path]
    assert payload(row, {**row.base, path: row.value}) \
        != payload(row, row.base)


@pytest.mark.parametrize("path", sorted(AREA_ONLY))
def test_vc_depth_changes_the_area_model(path):
    assert tile_budget(chip({path: AREA_ONLY[path]})) \
        != tile_budget(chip({}))


@pytest.mark.parametrize("builder", ["scorpio", "directory"])
def test_one_line_size_reaches_every_component(builder):
    system = build_spec_system(SystemSpec(
        builder, chip({"noc.line_size_bytes": 64}), workload=FFT))
    sizes = {system.memory_map.line_size}
    sizes |= {l2.array.line_size for l2 in system.l2s}
    sizes |= {core.l1.array.line_size for core in system.cores.values()}
    sizes |= {mc.line_size for mc in system.memory_controllers}
    if builder == "directory":
        sizes.add(system.home_map.line_size)
        sizes |= {d.cache.line_size for d in system.directories}
    assert sizes == {64}


@pytest.mark.parametrize("path", [
    "seed", "noc.multicast", "noc.router_pipeline_stages", "noc.link_stages",
    "cache.line_size", "cache.retry_timeout", "memory.line_size",
    "memory.banked", "memory.dram_config", "memory.dram_config.line_size"])
def test_a_removed_key_is_an_unknown_key(path):
    overrides: Dict[str, Any] = {}
    *parents, leaf = path.split(".")
    node = overrides
    for key in parents:
        node = node.setdefault(key, {})
    node[leaf] = 1
    document = {"schema": 1, "name": "removed-key",
                "configs": {"mesh": {"preset": "variant", "width": 3,
                                     "height": 3, "overrides": overrides}},
                "runs": [{"benchmark": "fft", "config": "mesh"}]}
    with pytest.raises(DocumentError, match="unknown key"):
        experiment_from_dict(document)
