"""Tests of the benchmark itself.  Run as ``pytest perf/`` — this file is
outside ``pytest.ini``'s testpaths on purpose, so tier-1 is unaffected.
Everything here runs at ``--smoke`` sizes.
"""

import json
import os
import re
import subprocess
import sys

import pytest

import run
from perflib import compare, tracing, workloads

ROOT = run.ROOT
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def declaration():
    return run.load_declaration()


# -- BENCHMARK.json ---------------------------------------------------------

def test_declaration_is_well_formed(declaration):
    assert set(declaration) == {"command", "paths", "run_seconds",
                                "workloads", "end_to_end", "per_layer"}
    assert declaration["paths"] == ["perf"]
    assert 2 <= len(declaration["workloads"]) <= 8
    assert 1 <= len(declaration["end_to_end"]) <= 16
    assert 1 <= len(declaration["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end",
                                       "per_layer")
             for entry in declaration[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in declaration["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in declaration["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in declaration["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in declaration["end_to_end"] + declaration["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [metric for metric in declaration["end_to_end"]
             if metric["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" \
        and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(metric["bound"] for metric
                                    in declaration["end_to_end"])


def test_declared_workloads_are_the_implemented_ones(declaration):
    assert [workload["name"] for workload in declaration["workloads"]] \
        == list(workloads.WORKLOADS)
    for mode in ("full", "smoke"):
        assert set(run.load_expected(mode == "smoke")) \
            == set(workloads.WORKLOADS)


# -- What is emitted is what is declared, and the other way round ------------

@pytest.fixture(scope="module")
def traced_layers():
    """Per workload, the per-layer metrics its traced pass computes
    (before ``run.py`` fills the ones that do not apply with zero)."""
    layers = {}
    for name in workloads.WORKLOADS:
        workload = workloads.make(name, 0, smoke=True)
        try:
            workload.setup()
            outcome = workload.traced()
        finally:
            workload.close()
        assert outcome.failed == 0 and not outcome.errors, outcome.errors
        assert outcome.digest == run.load_expected(True)[name]
        layers[name] = outcome.layers
    return layers


def test_every_declared_per_layer_metric_is_computed(declaration,
                                                     traced_layers):
    computed = set().union(*traced_layers.values())
    assert computed == {metric["name"]
                        for metric in declaration["per_layer"]}


def test_layer_shares_and_by_construction_zeros(traced_layers):
    for name in workloads.SIM_WORKLOADS:
        layers = traced_layers[name]
        shares = sum(layers[f"{layer}.self_share"]
                     for layer in tracing.LAYERS)
        assert shares == pytest.approx(1.0, abs=0.01)
    # The directory builder's NICs each construct a notification tracker
    # they never use: nine constructor calls on the 3x3 smoke mesh, and
    # nothing else.
    directory = traced_layers["directory-unicast"]
    assert directory["notification.calls"] == 9
    assert directory["notification.self_share"] < 1e-3
    assert directory["notification.injected"] == 0
    mesh = traced_layers["mesh-uniform"]
    assert mesh["notification.self_s"] == mesh["nic.self_s"] == 0
    assert mesh["notification.injected"] == 0
    assert traced_layers["scorpio-saturated"]["notification.self_s"] > 0


def test_cache_and_scheduler_counts(traced_layers):
    points = len(workloads.sweep_document(0, workloads.SIZES["smoke"])
                 ["runs"])
    cold, warm = traced_layers["sweep-cold"], traced_layers["sweep-warm"]
    assert (cold["experiments.cache.hits"],
            cold["experiments.cache.misses"]) == (0, points)
    assert (warm["experiments.cache.hits"],
            warm["experiments.cache.misses"]) == (points, 0)
    serve = traced_layers["serve-jobs"]
    serve_points = sum(len(document["runs"]) for document in
                       workloads.serve_documents(0, workloads.SIZES["smoke"]))
    assert serve["serve.scheduler.spawned_cold"] == serve_points
    assert serve["serve.scheduler.spawned_warm"] == 0
    assert serve["serve.jobs.cache_misses"] == serve_points


@pytest.mark.parametrize("trace", [0, 1])
def test_single_run_prints_the_contract_line(declaration, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perf", "run.py"),
         "--workload", "sweep-warm", "--seed", "3", "--seconds", "0.2",
         "--trace", str(trace), "--smoke"],
        stdout=subprocess.PIPE, check=True, cwd=ROOT, timeout=170)
    row = json.loads(done.stdout.splitlines()[-1])
    assert set(row) == {"correct", "attempted", "failed", "metrics"}
    assert row["correct"] is True and row["failed"] == 0
    assert row["attempted"] >= 1
    declared = declaration["per_layer" if trace else "end_to_end"]
    assert {name: cell["unit"] for name, cell in row["metrics"].items()} \
        == {metric["name"]: metric["unit"] for metric in declared}
    if not trace:
        assert all(cell["value"] > 0 for cell in row["metrics"].values())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_full_size_pins_hold(name, capsys):
    """One round at full size and seed 0 reproduces the pinned digest
    (the other tests run at smoke sizes)."""
    assert run.main(["--workload", name, "--seed", "0",
                     "--seconds", "0.1"]) == 0
    row = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert row["correct"] is True and row["failed"] == 0


def test_wrong_pinned_digest_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(run, "load_expected",
                        lambda smoke: dict.fromkeys(workloads.WORKLOADS,
                                                    "0" * 64))
    code = run.main(["--workload", "mesh-uniform", "--seed", "0",
                     "--seconds", "0.1", "--smoke"])
    row = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code != 0 and row["correct"] is False
    assert row["failed"] == row["attempted"]


def test_outcome_digest_is_the_definition_of_repro_bench():
    """BENCH_4/8/9 and this benchmark must mean the same by a digest."""
    from repro.experiments import bench
    from repro.experiments.builders import execute_system_spec
    workload = workloads.make("scorpio-idle", 0, smoke=True)
    workload.setup()
    outcome = execute_system_spec(workload.spec)
    assert workloads.outcome_digest(outcome) \
        == bench._outcome_digest(outcome) \
        == run.load_expected(True)["scorpio-idle"]


@pytest.mark.parametrize("knobs, point, ops_per_core", [
    ("saturated", "fft-saturated", 60),
    ("idle", "fft-low-injection", 40)])
def test_bench9_points_carry_over(knobs, point, ops_per_core):
    """``scorpio-saturated`` / ``scorpio-idle`` at the length BENCH_8/9
    ran them are the very points of BENCH_8/9: same cycles, same digest.
    (About ten seconds each.)"""
    with open(os.path.join(ROOT, "BENCH_9.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)["workloads"][point]
    size = workloads.SIZES["full"]
    size = dict(size, **{knobs: dict(size[knobs],
                                     ops_per_core=ops_per_core)})
    workload = workloads.SystemWorkload(0, size, "scorpio", knobs)
    workload.setup()
    (cycles, _ops, digest), _slices = workload.run_once()
    assert (cycles, digest) == (recorded["cycles"],
                                recorded["outcome_digest"])


def test_slice_clock_reads_at_fixed_cycles_and_changes_nothing():
    workload = workloads.make("scorpio-idle", 0, smoke=True)
    workload.setup()
    (run_a, slices_a), (run_b, slices_b) = (workload.run_once(),
                                            workload.run_once())
    assert run_a == run_b and len(slices_a) == len(slices_b) > 2
    # Pinned without a clock attached (test above): same digest with it.
    assert run_a[2] == run.load_expected(True)["scorpio-idle"]
    clock = workloads.SliceClock(100)
    clock.advance_to(100)
    clock.advance_to(437)            # after a fast-forward
    assert clock.next_cycle == 500 and len(clock.slices()) == 3


def test_quiet_median():
    slow, quiet = [3.0] * 60, [1.0] * 60
    # More than a quarter of the windows are quiet: their level.
    assert workloads.quiet_median(slow + quiet + slow) == 1.0
    # One quiet window among many is a passing mode, not the level.
    assert workloads.quiet_median(slow * 3 + quiet[:workloads.WINDOW]
                                  + slow * 3) == 3.0
    assert workloads.quiet_median([2.0, 4.0, 9.0]) == 4.0


def test_seeds_change_inputs_and_same_seed_repeats():
    size = workloads.SIZES["smoke"]
    assert workloads.sweep_document(1, size) \
        == workloads.sweep_document(1, size)
    assert workloads.sweep_document(1, size) \
        != workloads.sweep_document(2, size)
    assert workloads.serve_documents(1, size) \
        != workloads.serve_documents(2, size)


# -- Tracing ----------------------------------------------------------------

def test_span_self_time_is_duration_minus_children():
    recorder = tracing.SpanRecorder()
    recorder.spans = [tracing.Span("job", 0.0, 10.0, None, "j1"),
                      tracing.Span("submit", 1.0, 4.0, 0, "j1"),
                      tracing.Span("wait", 5.0, 7.0, 0, "j1"),
                      tracing.Span("poll", 5.5, 6.0, 2, "j1")]
    assert recorder.self_seconds() == [5.0, 3.0, 1.5, 0.5]
    assert recorder.summary()["job"] == {"count": 1, "total_ms": 10000.0,
                                         "self_ms": 5000.0}


def test_spans_nest_and_share_the_request():
    recorder = tracing.SpanRecorder()
    with recorder.span("document", "doc-7"):
        with recorder.span("parse"):
            pass
        with recorder.span("run"):
            with recorder.span("inner"):
                pass
    with recorder.span("document", "doc-8"):
        pass
    assert [(span.name, span.parent, span.request)
            for span in recorder.spans] == [
        ("document", None, "doc-7"), ("parse", 0, "doc-7"),
        ("run", 0, "doc-7"), ("inner", 2, "doc-7"),
        ("document", None, "doc-8")]
    assert all(span.end >= span.start for span in recorder.spans)
    assert all(own >= 0 for own in recorder.self_seconds())


def test_every_source_file_has_a_layer():
    package = os.path.join(ROOT, "src", "repro")
    seen = set()
    for directory, _dirs, files in os.walk(package):
        for filename in files:
            if filename.endswith(".py"):
                path = os.path.join(directory, filename)
                layer = tracing.layer_of_file(path, package)
                assert layer in tracing.LAYERS and layer != "python", path
                seen.add(layer)
    # A renamed package must not silently fall through to "harness".
    assert seen == set(tracing.LAYERS) - {"python"}
    assert tracing.layer_of("noc/router.py") == "noc.router"
    assert tracing.layer_of("noc/mesh.py") == "noc.fabric"
    assert tracing.layer_of("sim/statsframe.py") == "sim.stats"
    assert tracing.layer_of("experiments/builders.py") == "systems"
    assert tracing.layer_of("experiments/sweep.py") == "harness"
    assert tracing.layer_of_file("/usr/lib/python3/random.py",
                                 package) == "python"


# -- --compare ---------------------------------------------------------------

def test_verdicts():
    base = [10.0, 10.1, 9.9, 10.05, 9.95]
    assert compare.verdict(base, [10.2, 10.0, 10.1, 9.9, 10.0],
                           "lower", 0.10)[0] == "unchanged"
    assert compare.verdict(base, [12.0, 12.1, 11.9, 12.0, 12.2],
                           "lower", 0.10)[0] == "regressed"
    assert compare.verdict(base, [8.0, 8.1, 7.9, 8.0, 8.2],
                           "lower", 0.10)[0] == "improved"
    # Three runs a side are too few to call a gain.
    assert compare.verdict(base[:3], [8.0, 8.1, 7.9],
                           "lower", 0.10)[0] == "unchanged"
    # Higher-is-better flips the direction.
    assert compare.verdict(base, [8.0, 8.1, 7.9, 8.0, 8.2],
                           "higher", 0.10)[0] == "regressed"
    assert compare.verdict(base, [12.0, 12.1, 11.9, 12.0, 12.2],
                           "higher", 0.10)[0] == "improved"
    # Spread wider than the bound and overlapping runs: cannot say.
    noisy = [8.0, 12.5, 10.0, 13.0, 9.0]
    assert compare.verdict(base, noisy, "lower", 0.10)[0] == "unresolved"
    assert compare.verdict(noisy, [12.0, 14.0, 9.5, 12.5, 12.2],
                           "lower", 0.10)[0] == "unresolved"
    # Wide spread, but every new run worse than every base run.
    assert compare.verdict(base, [11.5, 16.0, 13.0, 19.0, 12.0],
                           "lower", 0.10)[0] == "regressed"
    verdict, ratio = compare.verdict([2.0], [3.0], "lower", 0.10)
    assert (verdict, ratio) == ("regressed", 1.5)


def suite_result(latency, digest="d", failed_frac=0.0, cycles=100.0,
                 calls=7.0):
    return {"workloads": {"w": {
        "end_to_end": {"latency_p50_ms": {"values": latency}},
        "failed_frac": failed_frac, "digest": digest,
        "traced": {"metrics": {
            "sim.cycles": {"value": cycles, "unit": "cycles"},
            "noc.router.calls": {"value": calls, "unit": "calls"},
            "noc.router.self_s": {"value": latency[0], "unit": "s"}}}}}}


def test_compare_passes_and_fails(declaration):
    base = suite_result([10.0, 10.1, 9.9])
    lines, ok = compare.compare(base, suite_result([10.05, 10.0, 9.95]),
                                declaration)
    assert ok and any("unchanged" in line for line in lines)
    bound = next(metric["bound"] for metric in declaration["end_to_end"]
                 if metric["name"] == "latency_p50_ms")
    for changed in (suite_result([value * (1 + 2 * bound)
                                  for value in (10.0, 10.1, 9.9)]),
                    suite_result([10.0, 10.1, 9.9], digest="other"),
                    suite_result([10.0, 10.1, 9.9], failed_frac=0.1),
                    suite_result([10.0, 10.1, 9.9], cycles=101.0)):
        assert not compare.compare(base, changed, declaration)[1]
    # A different call count is reported but is not a failure.
    lines, ok = compare.compare(base, suite_result([10.0, 10.1, 9.9],
                                                   calls=8.0), declaration)
    assert ok and any("noc.router.calls differs" in line for line in lines)
