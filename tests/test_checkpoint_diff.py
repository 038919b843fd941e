"""Differential identity suite for checkpoint/restore.

A checkpoint (:mod:`repro.sim.checkpoint`) is a pure execution-layer
feature: its contract is that *run N+M cycles straight* and *run N
cycles, snapshot to disk, restore in a fresh process, run M cycles*
produce **byte-identical** results.  This suite enforces the contract
end to end, mirroring ``tests/test_quiescence_diff.py``:

* every registered system builder runs once straight and once through a
  mid-run snapshot restored in a *fresh subprocess*, and the two
  ``SweepResult`` payloads must serialize byte-identically (runtime,
  completed ops, every stats counter and histogram mean, litmus
  observations — everything the cache would store);
* the golden cycle/flit/request counts of ``tests/test_golden_stats.py``
  are re-asserted on the snapshot/restore path, so checkpointing can
  never silently drift the goldens;
* Hypothesis properties snapshot at adversarial cycles (cycle 0, the
  completion boundary, past completion, chained double cuts) and
  require the straight payload back every time.
"""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import ChipConfig
from repro.experiments import (SystemSpec, builder_names,
                               execute_system_spec)
from repro.experiments.checkpoint_exec import resume_spec
from repro.experiments.sweep import SweepResult, snapshot_spec
from repro.sim.checkpoint import restore_system

BENCH = {"kind": "benchmark", "name": "fft", "ops_per_core": 8,
         "workload_scale": 0.02, "think_scale": 10.0, "seed": 0}

# Elides the source-hash half of the fingerprint so payloads compare
# across processes and code checkouts.
FP = "fingerprint-elided"


def _cfg():
    return ChipConfig.variant(3, 3)


def _specs():
    """One spec per registered builder (mirrors test_quiescence_diff)."""
    cfg = _cfg()
    return {
        "scorpio": SystemSpec("scorpio", cfg, workload=BENCH),
        "directory-lpd": SystemSpec("directory", cfg,
                                    params={"scheme": "LPD"},
                                    workload=BENCH),
        "directory-ht-incf": SystemSpec("directory", cfg,
                                        params={"scheme": "HT",
                                                "incf": True},
                                        workload=BENCH),
        "multimesh": SystemSpec("multimesh", cfg,
                                params={"n_meshes": 2}, workload=BENCH),
        "tokenb": SystemSpec("tokenb", cfg, workload=BENCH),
        "inso": SystemSpec("inso", cfg,
                           params={"expiration_window": 40},
                           workload=BENCH),
        "timestamp": SystemSpec("timestamp", cfg, workload=BENCH),
        "uncorq": SystemSpec("uncorq", cfg, workload=BENCH),
        "scorpio-locks": SystemSpec("scorpio", cfg,
                                    workload={"kind": "locks",
                                              "acquisitions_per_core": 2,
                                              "seed": 1}),
        "uncorq-lone-write": SystemSpec("uncorq", cfg,
                                        workload={"kind": "lone_write"}),
        "litmus-mp": SystemSpec("litmus", cfg,
                                params={"name": "message-passing",
                                        "threads": [[["W", "x"],
                                                     ["W", "y"]],
                                                    [["R", "y"],
                                                     ["R", "x"]]]}),
    }


# The same goldens test_golden_stats / test_quiescence_diff pin,
# re-checked on the snapshot -> fresh-process restore path.
GOLDEN = {
    "scorpio": {"runtime": 708, "flits": 1783, "requests": 71},
    "scorpio-locks": {"runtime": 820, "flits": 2193, "requests": 87},
    "uncorq-lone-write": {"runtime": 106, "flits": 23, "requests": 1},
}

# Mid-run for every case above (shortest runtime is 106 cycles).
CUT_CYCLE = 50


def _payload_bytes(spec: SystemSpec) -> bytes:
    """The straight-run payload (identical helper to the quiescence
    suite)."""
    outcome = execute_system_spec(spec)
    result = SweepResult.from_outcome(spec, FP, outcome)
    return json.dumps(result.payload(), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def _snapshot_at(spec: SystemSpec, cut: int, path) -> None:
    """Build the spec's system, run it *cut* cycles, snapshot to
    *path*."""
    system = spec.build()
    if cut > 0 and not system.all_cores_finished():
        system.engine.run(min(cut, spec.max_cycles),
                          until=system.all_cores_finished)
    snapshot_spec(spec, system, str(path), fingerprint=FP)


_RESUME_SNIPPET = (
    "import sys\n"
    "from repro.experiments.checkpoint_exec import resume_payload_json\n"
    "sys.stdout.write(resume_payload_json(sys.argv[1]))\n"
)


def _resume_in_fresh_process(path, source_snapshot) -> bytes:
    """The other half of the differential: a brand-new interpreter
    restores the snapshot and finishes the run — from the session's copy
    of the sources (``tests/conftest.py``), so an edit under
    ``src/repro`` mid-session cannot reach one side only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(source_snapshot) + os.pathsep
                         + env.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", _RESUME_SNIPPET, str(path)],
        capture_output=True, env=env, timeout=300)
    assert proc.returncode == 0, (
        f"fresh-process resume failed:\n{proc.stderr.decode()}")
    return proc.stdout


def test_every_registered_builder_is_covered():
    covered = {spec.builder for spec in _specs().values()}
    assert covered == set(builder_names()), (
        "builders without checkpoint differential coverage: "
        f"{sorted(set(builder_names()) - covered)}")


@pytest.mark.parametrize("case", sorted(_specs()))
def test_checkpoint_restore_payload_identity(case, tmp_path,
                                             source_snapshot):
    """Straight vs snapshot-at-50 -> restore-in-fresh-process -> finish:
    byte-identical payloads for every registered builder."""
    spec = _specs()[case]
    straight = _payload_bytes(spec)
    path = tmp_path / f"{case}.ckpt"
    _snapshot_at(spec, CUT_CYCLE, path)
    resumed = _resume_in_fresh_process(path, source_snapshot)
    assert resumed == straight, (
        f"{case!r}: resuming from a cycle-{CUT_CYCLE} checkpoint changed "
        "the simulated outcome — some component state is not captured "
        "(or not restored) by its state_dict")


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_checkpoint_restore_matches_goldens(case, tmp_path, source_snapshot):
    spec = _specs()[case]
    path = tmp_path / f"{case}.ckpt"
    _snapshot_at(spec, CUT_CYCLE, path)
    payload = json.loads(_resume_in_fresh_process(path, source_snapshot))
    observed = {
        "runtime": payload["runtime"],
        "flits": int(payload["stats"].get("noc.flits.transmitted", 0)),
        "requests": int(payload["stats"].get("nic.requests_sent", 0)),
    }
    assert observed == GOLDEN[case]


def test_litmus_observations_survive_fresh_process(tmp_path, source_snapshot):
    """The litmus observations collected after a fresh-process restore
    are the straight run's, row for row (already implied by the payload
    bytes, asserted explicitly because SC verdicts hang off them)."""
    spec = _specs()["litmus-mp"]
    straight = json.loads(_payload_bytes(spec))
    path = tmp_path / "litmus.ckpt"
    _snapshot_at(spec, 100, path)
    resumed = json.loads(_resume_in_fresh_process(path, source_snapshot))
    assert straight["extra"]["observations"] == \
        resumed["extra"]["observations"]
    assert len(resumed["extra"]["observations"]) == 4


# ---------------------------------------------------------------------------
# Properties: adversarial snapshot cycles (in-process restore for speed)
# ---------------------------------------------------------------------------

def _roundtrip_bytes(spec: SystemSpec, cuts, tmp_path) -> bytes:
    """Snapshot/restore at each cut in turn (chained), then finish."""
    path = tmp_path / "cut.ckpt"
    system = spec.build()
    for cut in sorted(cuts):
        remaining = cut - system.engine.cycle
        if remaining > 0 and not system.all_cores_finished():
            system.engine.run(min(remaining,
                                  spec.max_cycles - system.engine.cycle),
                              until=system.all_cores_finished)
        snapshot_spec(spec, system, str(path), fingerprint=FP)
        _meta, system = restore_system(str(path))
    snapshot_spec(spec, system, str(path), fingerprint=FP)
    result = resume_spec(str(path))
    return json.dumps(result.payload(), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


@settings(max_examples=12, deadline=None)
@example(cut=0)      # snapshot before the first tick
@example(cut=105)    # one cycle before completion (runtime is 106)
@example(cut=106)    # exactly the completion boundary
@example(cut=400)    # long past completion
@given(cut=st.integers(0, 130))
def test_property_any_cut_cycle_is_safe(cut, tmp_path_factory):
    """uncorq-lone-write (runtime 106): whatever single cycle the
    snapshot lands on, the restored run finishes with the straight
    payload."""
    tmp_path = tmp_path_factory.mktemp("cuts")
    spec = _specs()["uncorq-lone-write"]
    straight = _payload_bytes(spec)
    assert _roundtrip_bytes(spec, [cut], tmp_path) == straight


@settings(max_examples=8, deadline=None)
@example(cuts=[0, 0])        # double snapshot before anything ran
@example(cuts=[50, 51])      # adjacent cuts
@given(cuts=st.lists(st.integers(0, 260), min_size=2, max_size=3))
def test_property_chained_cuts_compose(cuts, tmp_path_factory):
    """litmus-mp (runtime 243): several snapshot/restore round trips in
    one run compose — state never decays across repeated restores."""
    tmp_path = tmp_path_factory.mktemp("chain")
    spec = _specs()["litmus-mp"]
    straight = _payload_bytes(spec)
    assert _roundtrip_bytes(spec, cuts, tmp_path) == straight
