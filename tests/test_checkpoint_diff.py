"""Differential identity suite for checkpoint/restore.

A checkpoint (:mod:`repro.sim.checkpoint`) is a pure execution-layer
feature: its contract is that *run N+M cycles straight* and *run N
cycles, snapshot to disk, restore in a fresh process, run M cycles*
produce **byte-identical** results.  This suite enforces the contract
end to end, over the point table of ``tests/identity_points.py``:

* every point (every registered builder) runs once straight and once
  through a mid-run snapshot restored in a *fresh subprocess*, and the
  two payloads must serialize byte-identically (runtime, completed ops,
  every stats counter and histogram mean, litmus observations —
  everything the cache would store);
* the goldens of that table are re-asserted on the snapshot/restore
  path, so checkpointing can never silently drift them;
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
from identity_points import FP, GOLDEN, POINTS, golden_row, payload_bytes

from repro.experiments import SystemSpec
from repro.experiments.checkpoint_exec import resume_payload_json
from repro.experiments.sweep import snapshot_spec
from repro.sim.checkpoint import restore_system

# Mid-run for every point (the shortest runtime is 106 cycles).
CUT_CYCLE = 50


def _snapshot_at(spec: SystemSpec, cut: int, path) -> None:
    """Build the spec's system, run it *cut* cycles, snapshot to
    *path*."""
    system = spec.build()
    system.run_until_done(min(cut, spec.max_cycles))
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


@pytest.mark.parametrize("case", sorted(POINTS))
def test_checkpoint_restore_payload_identity(case, tmp_path,
                                             source_snapshot):
    """Straight vs snapshot-at-50 -> restore-in-fresh-process -> finish:
    byte-identical payloads for every registered builder."""
    spec = POINTS[case]
    straight = payload_bytes(spec)
    path = tmp_path / f"{case}.ckpt"
    _snapshot_at(spec, CUT_CYCLE, path)
    resumed = _resume_in_fresh_process(path, source_snapshot)
    assert resumed == straight, (
        f"{case!r}: resuming from a cycle-{CUT_CYCLE} checkpoint changed "
        "the simulated outcome — some component state is not captured "
        "(or not restored) by its state_dict")


@pytest.mark.parametrize("case", sorted(POINTS))
def test_checkpoint_restore_matches_goldens(case, tmp_path, source_snapshot):
    path = tmp_path / f"{case}.ckpt"
    _snapshot_at(POINTS[case], CUT_CYCLE, path)
    payload = json.loads(_resume_in_fresh_process(path, source_snapshot))
    assert golden_row(payload) == GOLDEN[case]


def test_litmus_observations_survive_fresh_process(tmp_path, source_snapshot):
    """The litmus observations collected after a fresh-process restore
    are the straight run's, row for row (already implied by the payload
    bytes, asserted explicitly because SC verdicts hang off them)."""
    spec = POINTS["litmus-mp"]
    straight = json.loads(payload_bytes(spec))
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
        system.run_until_done(min(cut, spec.max_cycles))
        snapshot_spec(spec, system, str(path), fingerprint=FP)
        _meta, system = restore_system(str(path))
    snapshot_spec(spec, system, str(path), fingerprint=FP)
    return resume_payload_json(str(path)).encode("utf-8")


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
    spec = POINTS["uncorq-lone-write"]
    straight = payload_bytes(spec)
    assert _roundtrip_bytes(spec, [cut], tmp_path) == straight


@settings(max_examples=8, deadline=None)
@example(cuts=[0, 0])        # double snapshot before anything ran
@example(cuts=[50, 51])      # adjacent cuts
@given(cuts=st.lists(st.integers(0, 260), min_size=2, max_size=3))
def test_property_chained_cuts_compose(cuts, tmp_path_factory):
    """litmus-mp (runtime 243): several snapshot/restore round trips in
    one run compose — state never decays across repeated restores."""
    tmp_path = tmp_path_factory.mktemp("chain")
    spec = POINTS["litmus-mp"]
    straight = payload_bytes(spec)
    assert _roundtrip_bytes(spec, cuts, tmp_path) == straight
