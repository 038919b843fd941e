"""The seven workloads of the benchmark (see ``perf/README.md`` for why
each exists).  Every workload builds its inputs from the seed alone, and
the program under test sees only those inputs.

A workload object is used as::

    workload = make(name, seed, smoke)
    workload.setup()                      # timed by the caller: setup_s
    outcome = workload.timed(seconds)     # or .traced()
    workload.close()

``timed`` runs with no instrumentation and yields the end-to-end
timings; ``traced`` is the separate pass that produces the per-layer
numbers (profile, spans, simulated counts).  ``repro`` is imported inside
``setup`` so that the import is part of the measured set-up time.

**Rounds.**  A timed pass is a sequence of *rounds* of identical work,
repeated until the requested seconds have passed.  Every timing is
computed per round and the *best* round is reported: the reference host
is a small shared VM on which a round is slowed by up to a half for
seconds or minutes at a time and never sped up, so the floor is the one
level that repeats from run to run (the measurements are in
``perf/README.md``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import resource
import shutil
import statistics
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple
from unittest import mock

from perflib.tracing import NoSpans, SpanRecorder, profile_layers

PERF_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRATCH_ROOT = os.path.join(PERF_DIR, "results", "tmp")

SIM_WORKLOADS = ("scorpio-saturated", "scorpio-idle", "directory-unicast",
                 "mesh-uniform")
WORKLOADS = SIM_WORKLOADS + ("sweep-cold", "sweep-warm", "serve-jobs")

# jobs= / workers= / client threads of the sweep and serve workloads:
# the host has two processors, and the load must fit inside them.
PARALLEL = 2

# Input sizes.  "full" was sized on the reference host at seed 0 so that
# a round takes one to two seconds and a run holds five or more of them
# (the measurements are in perf/README.md); "smoke" only proves the
# harness runs end to end.  ``slice_cycles`` is how many simulated cycles
# apart the host clock is read inside a system round (see SliceClock).
SIZES: Dict[str, Dict[str, Any]] = {
    "full": {
        "mesh": None,                      # None: ChipConfig.chip_36core()
        "saturated": {"ops_per_core": 8, "workload_scale": 0.05,
                      "think_scale": 1.0},
        "idle": {"ops_per_core": 8, "workload_scale": 0.05,
                 "think_scale": 200.0},
        "directory": {"ops_per_core": 60, "workload_scale": 0.05,
                      "think_scale": 1.0},
        "slice_cycles": {"saturated": 25, "idle": 500, "directory": 100},
        "mesh_cycles": 1500,
        "sweep": {"builders": ("scorpio", "tokenb", "inso", "directory"),
                  "benchmarks": ("fft", "barnes", "lu"), "seeds": 2,
                  "ops_per_core": 8},
        "serve_documents": 4,
        "block": 100,           # warm documents / warm jobs per round
    },
    "smoke": {
        "mesh": 3,
        "saturated": {"ops_per_core": 8, "workload_scale": 0.02,
                      "think_scale": 1.0},
        "idle": {"ops_per_core": 8, "workload_scale": 0.02,
                 "think_scale": 60.0},
        "directory": {"ops_per_core": 8, "workload_scale": 0.02,
                      "think_scale": 1.0},
        "slice_cycles": {"saturated": 25, "idle": 100, "directory": 25},
        "mesh_cycles": 1500,
        "sweep": {"builders": ("scorpio", "tokenb", "inso", "directory"),
                  "benchmarks": ("fft",), "seeds": 2, "ops_per_core": 8},
        "serve_documents": 2,
        "block": 20,
    },
}

# Requests of the warm workloads are judged in windows of this many
# consecutive requests (a quarter of a second), half overlapping.
WINDOW = 20


@dataclasses.dataclass
class Outcome:
    """What one pass of a workload measured."""

    timings: Dict[str, float]         # end-to-end metrics but setup_s
    attempted: int
    failed: int
    digest: str
    detail: Dict[str, Any] = dataclasses.field(default_factory=dict)
    layers: Dict[str, float] = dataclasses.field(default_factory=dict)
    errors: List[str] = dataclasses.field(default_factory=list)
    spans: List[Dict[str, Any]] = dataclasses.field(default_factory=list)


def quiet_median(latencies: Sequence[float]) -> float:
    """Median seconds per request while the host is quiet: the lower
    quartile, over the windows of ``WINDOW`` consecutive requests, of
    their medians.  The quietest window alone can be a short-lived
    scheduling mode of the threads involved; a quarter of the run is not.
    """
    medians = [statistics.median(latencies[start:start + WINDOW])
               for start in range(0, max(1, len(latencies) - WINDOW + 1),
                                  WINDOW // 2)]
    if len(medians) < 2:
        return medians[0]
    return statistics.quantiles(medians, n=4)[0]


def warm_percentiles(prefix: str, durations_ms: Sequence[float],
                     ) -> Dict[str, float]:
    """The per-layer view of request latency, from the traced round's
    spans: the median and the 90th percentile (ten or more samples
    beyond it from a block of a hundred)."""
    return {f"{prefix}.warm_p50_ms": statistics.median(durations_ms),
            f"{prefix}.warm_p90_ms": statistics.quantiles(
                durations_ms, n=10, method="inclusive")[-1]}


def sha256_json(value: Any) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def repeat_rounds(seconds: float, one_round: Callable[[], None]) -> float:
    """Call *one_round* until *seconds* have passed, and at least once.

    Returns the process's peak resident memory in MB after the first
    round: a fixed amount of work, where the number of rounds that fit
    into *seconds* depends on the host."""
    start = time.perf_counter()
    one_round()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while time.perf_counter() - start < seconds:
        one_round()
    return peak_rss_mb


# ---------------------------------------------------------------------------
# Simulator workloads
# ---------------------------------------------------------------------------

def outcome_digest(outcome) -> str:
    """Same definition as ``repro bench`` (BENCH_8/9), so the digests of
    the two carried-over points stay comparable."""
    return sha256_json({"runtime": outcome.runtime,
                        "completed_ops": outcome.completed_ops,
                        "progress": outcome.progress,
                        "stats": outcome.stats, "extra": outcome.extra})


def simulated_counts(stats: Dict[str, float], accounting: Dict[str, float],
                     cycles: int, ops: int) -> Dict[str, float]:
    """The per-layer simulated counts, from the simulator's own stats
    snapshot and ``Engine.kernel_accounting()``.  Exact for a given
    input: a change to the simulator's speed must leave all of them
    identical."""
    get = lambda key: float(stats.get(key, 0.0))       # noqa: E731
    granted, denied, lost = (get("noc.la.granted"), get("noc.la.denied"),
                             get("noc.la.lost_arbitration"))
    attempts = granted + denied + lost
    return {
        "sim.cycles": float(cycles),
        "sim.ops_per_kcycle": 1000.0 * ops / cycles,
        "sim.engine.ticks_executed": accounting["ticks_executed"],
        "sim.engine.idle_ticks": accounting["idle_ticks"],
        "sim.engine.cycles_fast_forwarded":
            accounting["cycles_fast_forwarded"],
        "noc.flits_transmitted": get("noc.flits.transmitted"),
        "noc.la_granted": granted,
        "noc.la_denied": denied,
        "noc.la_lost_arbitration": lost,
        "noc.router_bypassed": get("noc.router.bypassed"),
        "noc.router_buffered": get("noc.router.buffered"),
        "noc.bypass_ratio": granted / attempts if attempts else 0.0,
        "nic.packets_injected": get("nic.packets_injected"),
        "nic.order_latency_mean": get("nic.order_latency.mean"),
        "nic.ordering_wait_mean": get("nic.ordering_wait.mean"),
        "notification.injected": get("notification.injected"),
        "notification.windows_nonempty":
            get("notification.windows_nonempty"),
        "coherence.l2_hits": get("l2.hits"),
        "coherence.l2_misses": get("l2.misses"),
        "coherence.miss_latency_mean": get("l2.miss_latency.mean"),
        "coherence.snoops_filtered": get("l2.snoops.filtered"),
        "memory.dram_reads": get("mc.dram_reads"),
        "cpu.ops_completed": get("core.ops_completed"),
        "cpu.stall_cycles": sum(value for key, value in stats.items()
                                if key.startswith("core.stalls.")),
    }


class SliceClock:
    """Reads the host clock every *period* simulated cycles of one round.

    The engine offers a passive sampler slot (``Engine.attach_sampler``):
    it calls ``advance_to(cycle)`` once the clock has reached
    ``next_cycle`` and never lets the sampler change what is simulated.
    A simulation is deterministic, so the stretch between two readings is
    the same work in every round, and the best time for each stretch can
    be taken across rounds: host noise that lasts less than a round no
    longer spoils the whole round.
    """

    def __init__(self, period: int) -> None:
        self.period = period
        self.next_cycle = period
        self.readings = [time.perf_counter()]

    def advance_to(self, cycle: int) -> None:
        self.readings.append(time.perf_counter())
        self.next_cycle = cycle - cycle % self.period + self.period

    def __len__(self) -> int:      # the system records it as run meta-data
        return len(self.readings)

    def slices(self) -> List[float]:
        """Seconds per stretch, from the start of the round to now."""
        readings = self.readings + [time.perf_counter()]
        return [after - before
                for before, after in zip(readings, readings[1:])]


class SimulatorWorkload:
    """One simulation to completion per round, single-threaded.

    Subclasses say how to run it (``run_once``) and how to run it with
    the engine and stats registry captured (``run_captured``)."""

    def __init__(self, seed: int, size: Dict[str, Any]) -> None:
        self.seed = seed
        self.size = size

    def close(self) -> None:
        pass

    # run_once() -> ((cycles, ops, digest), seconds per slice)
    # run_captured() -> (cycles, ops, digest, stats snapshot, accounting)

    def timed(self, seconds: float) -> Outcome:
        runs: List[Tuple[int, int, str]] = []
        rounds: List[List[float]] = []

        def one_round() -> None:
            run, slices = self.run_once()
            runs.append(run)
            rounds.append(slices)

        peak_rss_mb = repeat_rounds(seconds, one_round)
        outcome = self._outcome(runs)
        if len({len(slices) for slices in rounds}) != 1:
            outcome.failed = outcome.attempted
            outcome.errors.append("rounds differ in their number of slices")
            best_s = min(map(sum, rounds))
        else:
            # Slice by slice, the round that ran it fastest.
            best_s = sum(map(min, zip(*rounds)))
        # Work is counted in completed operations, not simulated cycles:
        # the operation count is fixed by the input size, while the cycle
        # count of the same size moves by a quarter from seed to seed
        # (on scorpio-idle it is mostly think time).
        cycles, ops, _digest = runs[0]
        outcome.timings = {"work_per_s": ops / best_s,
                           "latency_p50_ms": best_s * 1e3,
                           "peak_rss_mb": peak_rss_mb}
        outcome.detail.update(
            rounds=len(rounds), slices=len(rounds[0]),
            round_s=[sum(slices) for slices in rounds], best_s=best_s,
            sim_cycles_per_s=cycles / best_s)
        return outcome

    def traced(self) -> Outcome:
        import repro
        reference, slices = self.run_once()
        untraced_s = sum(slices)
        captured, traced_s, layers = profile_layers(
            self.run_captured, os.path.dirname(repro.__file__))
        cycles, ops, digest, stats, accounting = captured
        outcome = self._outcome([reference, (cycles, ops, digest)])
        metrics = simulated_counts(stats, accounting, cycles, ops)
        total_self = sum(self_s for self_s, _calls in layers.values())
        for layer, (self_s, calls) in layers.items():
            metrics[f"{layer}.self_s"] = self_s
            metrics[f"{layer}.self_share"] = self_s / total_self
            metrics[f"{layer}.calls"] = float(calls)
        # Host time per simulated event uses the *untraced* wall time:
        # the profile only supplies the share that went to the NoC.
        noc_share = (metrics["noc.router.self_share"]
                     + metrics["noc.fabric.self_share"])
        metrics["sim.engine.host_us_per_tick"] = \
            untraced_s * 1e6 / accounting["ticks_executed"]
        flits = metrics["noc.flits_transmitted"]
        metrics["noc.host_us_per_flit"] = \
            untraced_s * noc_share * 1e6 / flits if flits else 0.0
        metrics["trace.overhead_ratio"] = traced_s / untraced_s
        outcome.layers = metrics
        return outcome

    def _outcome(self, runs) -> Outcome:
        cycles, ops, digest = runs[0]
        mismatched = [run for run in runs if run != runs[0]]
        errors = [f"round produced {run}, first round {runs[0]}"
                  for run in mismatched]
        return Outcome(timings={}, attempted=len(runs),
                       failed=len(mismatched), digest=digest, errors=errors,
                       detail={"sim_cycles": cycles, "sim_ops": ops,
                               "sim_ops_per_kcycle": 1000.0 * ops / cycles})


class SystemWorkload(SimulatorWorkload):
    """A full system through the public ``execute_system_spec``."""

    def __init__(self, seed, size, builder: str, knobs: str,
                 params: Optional[Dict[str, Any]] = None,
                 directory_cache_bytes: Optional[int] = None) -> None:
        super().__init__(seed, size)
        self.builder = builder
        self.knobs = knobs
        self.params = params or {}
        self.directory_cache_bytes = directory_cache_bytes

    def setup(self) -> None:
        from repro.core.config import ChipConfig
        from repro.experiments.builders import SystemSpec, build_spec_system
        mesh = self.size["mesh"]
        config = ChipConfig.chip_36core() if mesh is None \
            else ChipConfig.variant(mesh, mesh)
        if self.directory_cache_bytes is not None:
            config = dataclasses.replace(
                config, directory_cache_bytes=self.directory_cache_bytes)
        self.spec = SystemSpec(
            self.builder, config, params=dict(self.params),
            workload={"kind": "benchmark", "name": "fft", "seed": self.seed,
                      **self.size[self.knobs]})
        # Building is part of set-up time; each round builds its own
        # system again inside execute_system_spec.
        build_spec_system(self.spec)

    def run_once(self):
        from repro.experiments.builders import execute_system_spec
        clock = SliceClock(self.size["slice_cycles"][self.knobs])
        outcome = execute_system_spec(
            self.spec,
            instrument=lambda system: system.engine.attach_sampler(clock))
        slices = clock.slices()
        return (outcome.runtime, outcome.completed_ops,
                outcome_digest(outcome)), slices

    def run_captured(self):
        from repro.experiments.builders import execute_system_spec
        systems: List[Any] = []
        outcome = execute_system_spec(self.spec, instrument=systems.append)
        return (outcome.runtime, outcome.completed_ops,
                outcome_digest(outcome), outcome.stats,
                systems[0].engine.kernel_accounting())


class MeshWorkload(SimulatorWorkload):
    """The bare mesh under synthetic traffic (``NetworkTester.run``).
    The tester builds its engine itself, so a round is one slice."""

    def setup(self) -> None:
        from repro.core.config import ChipConfig
        from repro.noc.tester import NetworkTester, TrafficConfig
        mesh = self.size["mesh"]
        config = ChipConfig.chip_36core() if mesh is None \
            else ChipConfig.variant(mesh, mesh)
        self.tester = NetworkTester(config.noc)
        self.traffic = TrafficConfig("uniform", 0.10, seed=self.seed)
        self.cycles = self.size["mesh_cycles"]

    def run_once(self):
        start = time.perf_counter()
        result = self.tester.run(self.traffic, cycles=self.cycles)
        digest = sha256_json(dataclasses.asdict(result))
        return ((self.cycles, result.delivered_packets, digest),
                [time.perf_counter() - start])

    def run_captured(self):
        # NetworkTester.run builds its engine and stats registry itself
        # and returns neither; note the instances it creates.
        from repro.noc import tester as tester_module
        engines: List[Any] = []
        registries: List[Any] = []

        class CapturedEngine(tester_module.Engine):
            def __init__(self, *args, **kwargs) -> None:
                super().__init__(*args, **kwargs)
                engines.append(self)

        class CapturedStats(tester_module.StatsRegistry):
            def __init__(self, *args, **kwargs) -> None:
                super().__init__(*args, **kwargs)
                registries.append(self)

        with mock.patch.object(tester_module, "Engine", CapturedEngine), \
                mock.patch.object(tester_module, "StatsRegistry",
                                  CapturedStats):
            (cycles, ops, digest), _slices = self.run_once()
        return (cycles, ops, digest, registries[0].snapshot(),
                engines[0].kernel_accounting())


# ---------------------------------------------------------------------------
# Documents (sweep-cold, sweep-warm, serve-jobs)
# ---------------------------------------------------------------------------

def document(name: str, points: Sequence[Tuple[str, str, int]],
             ops_per_core: int) -> Dict[str, Any]:
    """An experiment document of deliberately tiny points (3x3 mesh, a
    few operations per core), so that what surrounds a simulation
    (process per point, fingerprint, payload JSON, cache I/O, HTTP) is a
    visible share of the wall time.  *points* are ``(builder, benchmark,
    workload seed)``."""
    return {"schema": 1, "name": name,
            "configs": {"mesh": {"preset": "variant", "width": 3,
                                 "height": 3}},
            "runs": [{"builder": builder, "config": "mesh",
                      "label": f"{builder}-{benchmark}-{seed}",
                      "workload": {"kind": "benchmark", "name": benchmark,
                                   "ops_per_core": ops_per_core,
                                   "workload_scale": 0.02, "seed": seed}}
                     for builder, benchmark, seed in points]}


def sweep_document(seed: int, size: Dict[str, Any]) -> Dict[str, Any]:
    """Every builder x benchmark x a few workload seeds, one document."""
    shape = size["sweep"]
    return document(
        f"perf-sweep-{seed}",
        [(builder, benchmark, seed * 1000 + index)
         for builder in shape["builders"]
         for benchmark in shape["benchmarks"]
         for index in range(shape["seeds"])],
        shape["ops_per_core"])


def serve_documents(seed: int, size: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Distinct four-point documents, one per job."""
    return [document(
                f"perf-serve-{seed}-{index}",
                [(builder, benchmark, seed * 1000 + index)
                 for builder in ("scorpio", "directory")
                 for benchmark in ("fft", "lu")],
                size["sweep"]["ops_per_core"])
            for index in range(size["serve_documents"])]


def strip_cache(envelope: bytes) -> bytes:
    """The envelope without its ``cache`` {hits, misses} key — the one
    part that legitimately differs between a cold and a warm run."""
    from repro.api.document import envelope_bytes
    payload = json.loads(envelope)
    payload.pop("cache", None)
    return envelope_bytes(payload)


def envelope_digest(envelope: bytes) -> str:
    """Digest of the simulated outcomes in an envelope.  Fingerprints are
    left out: they hash the simulator's source, so they change with every
    edit under ``src/repro`` even when no outcome does."""
    payload = json.loads(envelope)
    return sha256_json([{key: result[key] for key in
                         ("runtime", "completed_ops", "progress", "stats",
                          "extra")}
                        for result in payload["results"]])


def noop_worker(item: Any) -> Any:
    return item


def make_scratch(prefix: str) -> str:
    """A fresh directory below ``perf/results/tmp`` (inside the checkout,
    git-ignored); the workload's ``close`` removes it."""
    os.makedirs(SCRATCH_ROOT, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=SCRATCH_ROOT)


class DocumentWorkload:
    """Shared by sweep-cold and sweep-warm: the same document through
    ``experiment_from_dict -> run_experiment -> envelope_bytes``."""

    def __init__(self, seed: int, size: Dict[str, Any]) -> None:
        self.seed = seed
        self.size = size
        self.scratch: Optional[str] = None

    def setup(self) -> None:
        from repro.api.document import experiment_from_dict
        from repro.experiments.cache import code_version
        start = time.perf_counter()
        code_version()      # memoized: only the first call hashes src/
        self.code_version_ms = (time.perf_counter() - start) * 1e3
        self.document = sweep_document(self.seed, self.size)
        self.points = len(experiment_from_dict(self.document).specs)
        self.scratch = make_scratch("sweep-")

    def close(self) -> None:
        if self.scratch is not None:
            shutil.rmtree(self.scratch, ignore_errors=True)

    def run_document(self, cache_dir: str, spans, request: str):
        """One document -> envelope bytes; returns ``(seconds, envelope,
        result)`` or raises ``SweepPointError``."""
        from repro.api.document import (envelope_bytes,
                                        experiment_from_dict,
                                        run_experiment)
        start = time.perf_counter()
        with spans.span("document", request):
            with spans.span("parse"):
                experiment = experiment_from_dict(self.document)
            with spans.span("run"):
                result = run_experiment(experiment, jobs=PARALLEL,
                                        cache=cache_dir)
            with spans.span("envelope"):
                envelope = envelope_bytes(result.payload())
        return time.perf_counter() - start, envelope, result

    def micro_timings(self, result, cache_dir: str) -> Dict[str, float]:
        """Micro-timings of the public calls a document run is made of,
        with the cache and ``code_version()`` warm."""
        from repro.api.document import collect_experiment_result
        from repro.experiments.cache import (LocalDirBackend, ResultCache,
                                             code_version)
        from repro.experiments.procpool import run_points
        specs = result.experiment.specs
        version = code_version()
        start = time.perf_counter()
        fingerprints = [spec.fingerprint(code_version=version)
                        for spec in specs]
        fingerprint_s = time.perf_counter() - start

        cache = ResultCache(cache_dir)
        start = time.perf_counter()
        payloads = [cache.get(fingerprint) for fingerprint in fingerprints]
        get_s = time.perf_counter() - start

        scratch = LocalDirBackend(os.path.join(self.scratch, "put-probe"))
        start = time.perf_counter()
        for fingerprint, payload in zip(fingerprints, payloads):
            scratch.put(fingerprint, payload)
        put_s = time.perf_counter() - start

        start = time.perf_counter()
        collect_experiment_result(result.experiment, result.results)
        collect_s = time.perf_counter() - start

        spawns = 8 * PARALLEL
        start = time.perf_counter()
        done, failed = run_points([(index, index)
                                   for index in range(spawns)],
                                  noop_worker, jobs=PARALLEL)
        spawn_s = time.perf_counter() - start
        if len(done) != spawns or failed:
            raise RuntimeError(f"no-op pool: {len(done)} done, {failed}")

        count = len(specs)
        return {
            "api.document.collect_ms": collect_s * 1e3,
            "experiments.cache.code_version_ms": self.code_version_ms,
            "experiments.spec.fingerprint_us": fingerprint_s * 1e6 / count,
            "experiments.cache.get_us": get_s * 1e6 / count,
            "experiments.cache.put_us": put_s * 1e6 / count,
            "experiments.cache.payload_bytes": statistics.mean(
                len(json.dumps(payload, sort_keys=True))
                for payload in payloads),
            "experiments.procpool.spawn_ms": spawn_s * 1e3 / spawns,
        }

    def span_metrics(self, spans: SpanRecorder, envelope: bytes,
                     ) -> Dict[str, float]:
        return {
            "api.document.parse_ms":
                statistics.median(spans.durations_ms("parse")),
            "api.document.envelope_ms":
                statistics.median(spans.durations_ms("envelope")),
            "api.document.envelope_bytes": float(len(envelope)),
        }


class SweepCold(DocumentWorkload):
    """A round runs the document against a fresh, empty cache."""

    def timed(self, seconds: float) -> Outcome:
        return self._measure(seconds, NoSpans())

    def traced(self) -> Outcome:
        from repro.api.document import (envelope_bytes,
                                        experiment_from_dict,
                                        run_experiment)
        spans = SpanRecorder()
        # One traced cold round (keep its cache for the micro-timings).
        outcome = self._measure(0.0, spans, keep_cache=True)
        cold_run_s = spans.durations_ms("run")[0] / 1e3
        # The same points simulated serially in this process, no cache:
        # what is left of the cold round, per point, is the cost of the
        # process pool, fingerprints, payload JSON and cache writes.
        experiment = experiment_from_dict(self.document)
        start = time.perf_counter()
        serial = run_experiment(experiment, jobs=1, cache=False)
        serial_s = time.perf_counter() - start
        if envelope_bytes(serial.payload()) != strip_cache(self.envelope):
            outcome.failed = outcome.attempted
            outcome.errors.append("cached parallel envelope differs from "
                                  "the serial uncached run_experiment")
        metrics = self.micro_timings(self.result, self.cache_dir)
        metrics.update(self.span_metrics(spans, self.envelope))
        metrics.update({
            "experiments.cache.hits": float(self.stats["hits"]),
            "experiments.cache.misses": float(self.stats["misses"]),
            "experiments.sweep.run_cold_s": cold_run_s,
            "experiments.sweep.overhead_ms_per_point":
                (cold_run_s - serial_s / PARALLEL) * 1e3 / self.points,
        })
        outcome.layers = metrics
        outcome.detail["spans"] = spans.summary()
        outcome.spans = spans.dump()
        return outcome

    def _measure(self, seconds: float, spans,
                 keep_cache: bool = False) -> Outcome:
        round_s: List[float] = []
        errors: List[str] = []
        envelopes: List[bytes] = []

        def one_round() -> None:
            index = len(round_s)
            self.cache_dir = os.path.join(self.scratch, f"cold-{index}")
            try:
                elapsed, envelope, result = self.run_document(
                    self.cache_dir, spans, f"doc-{index}")
            finally:
                if not keep_cache:
                    shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.envelope, self.result = envelope, result
            self.stats = result.cache_stats
            if self.stats != {"hits": 0, "misses": self.points}:
                errors.append(f"cold round {index}: cache stats "
                              f"{self.stats}")
            elif envelope != (envelopes or [envelope])[0]:
                errors.append(f"cold round {index}: envelope differs from "
                              f"round 0")
            envelopes.append(envelope)
            round_s.append(elapsed)

        peak_rss_mb = repeat_rounds(seconds, one_round)
        return Outcome(
            timings={"work_per_s": self.points / min(round_s),
                     "latency_p50_ms": min(round_s) * 1e3,
                     "peak_rss_mb": peak_rss_mb},
            attempted=self.points * len(round_s),
            failed=self.points * len(errors), errors=errors,
            digest=envelope_digest(envelopes[0]),
            detail={"points": self.points, "rounds": len(round_s),
                    "round_s": round_s})


class SweepWarm(DocumentWorkload):
    """The document again and again against a cache that holds all of
    it: the simulator does nothing, the pipeline around it is the cost.
    A round is one block of documents."""

    def setup(self) -> None:
        super().setup()
        self.cache_dir = os.path.join(self.scratch, "warm")
        # The untimed warm-up: fill the cache.
        _elapsed, self.cold_envelope, _result = self.run_document(
            self.cache_dir, NoSpans(), "fill")

    def timed(self, seconds: float) -> Outcome:
        return self._measure(seconds, NoSpans())

    def traced(self) -> Outcome:
        spans = SpanRecorder()
        outcome = self._measure(0.0, spans)
        metrics = self.micro_timings(self.result, self.cache_dir)
        metrics.update(self.span_metrics(spans, self.envelope))
        metrics.update(warm_percentiles("api.document",
                                        spans.durations_ms("document")))
        metrics.update({
            "experiments.cache.hits": float(self.fewest_hits),
            "experiments.cache.misses": float(self.most_misses),
            "experiments.sweep.run_warm_s":
                statistics.median(spans.durations_ms("run")) / 1e3,
        })
        outcome.layers = metrics
        outcome.detail["spans"] = spans.summary()
        outcome.spans = spans.dump()
        return outcome

    def _measure(self, seconds: float, spans) -> Outcome:
        blocks: List[List[float]] = []
        errors: List[str] = []
        # Warm envelopes are all the same bytes; the first is held to
        # the cold one, which differs in the ``cache`` key alone.
        first: List[bytes] = []
        self.fewest_hits, self.most_misses = self.points, 0

        def one_round() -> None:
            latencies: List[float] = []
            for _ in range(self.size["block"]):
                index = len(blocks) * self.size["block"] + len(latencies)
                elapsed, envelope, result = self.run_document(
                    self.cache_dir, spans, f"doc-{index}")
                stats = result.cache_stats
                self.fewest_hits = min(self.fewest_hits, stats["hits"])
                self.most_misses = max(self.most_misses, stats["misses"])
                if stats != {"hits": self.points, "misses": 0}:
                    errors.append(f"warm document {index}: cache stats "
                                  f"{stats}")
                elif not first:
                    first.append(envelope)
                    if strip_cache(envelope) \
                            != strip_cache(self.cold_envelope):
                        errors.append("warm envelope differs from the "
                                      "cold one")
                elif envelope != first[0]:
                    errors.append(f"warm document {index}: envelope "
                                  f"differs from the first warm one")
                latencies.append(elapsed)
            self.envelope, self.result = envelope, result
            blocks.append(latencies)

        peak_rss_mb = repeat_rounds(seconds, one_round)
        latencies = [elapsed for block in blocks for elapsed in block]
        documents = len(latencies)
        median_s = quiet_median(latencies)
        return Outcome(
            timings={"work_per_s": self.points / median_s,
                     "latency_p50_ms": median_s * 1e3,
                     "peak_rss_mb": peak_rss_mb},
            attempted=self.points * documents,
            failed=self.points * len(errors), errors=errors,
            digest=envelope_digest(self.cold_envelope),
            detail={"points": self.points, "documents": documents,
                    "rounds": len(blocks)})


class ServeJobs:
    """An in-process ``repro serve`` frontend and two closed-loop client
    threads: each submits a document, waits for the job and downloads
    the envelope before it sends the next (a caller needs its envelope
    before it can go on, so the loop is closed).

    A round empties the cache directory, submits every document once
    (the cold phase: all points simulated) and then a block of
    re-submissions (the warm phase: answered at submit time)."""

    def __init__(self, seed: int, size: Dict[str, Any]) -> None:
        self.seed = seed
        self.size = size
        self.scratch: Optional[str] = None
        self.server = None

    def setup(self) -> None:
        from repro.api.client import ServeClient
        from repro.serve import serve
        self.documents = serve_documents(self.seed, self.size)
        self.points = sum(len(document["runs"])
                          for document in self.documents)
        self.scratch = make_scratch("serve-")
        self.cache_dir = os.path.join(self.scratch, "cache")
        self.server = serve(self.cache_dir, port=0,
                            workers=PARALLEL).start()
        self.client = ServeClient(self.server.url)
        self.client.health()
        # The untimed warm-up: one throwaway job, so the first measured
        # job does not pay for the first fork and the first connection.
        self.client.run(document("perf-serve-warmup",
                                 [("scorpio", "fft", self.seed)] * PARALLEL,
                                 self.size["sweep"]["ops_per_core"]),
                        timeout=120.0)

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
        if self.scratch is not None:
            shutil.rmtree(self.scratch, ignore_errors=True)

    def timed(self, seconds: float) -> Outcome:
        return self._measure(seconds, NoSpans())

    def traced(self) -> Outcome:
        spans = SpanRecorder()
        outcome = self._measure(0.0, spans)
        metrics = dict(outcome.layers)
        for name in ("submit", "wait", "result"):
            metrics[f"serve.http.{name}_ms"] = \
                statistics.median(spans.durations_ms(name))
        # The first jobs of the traced round are the cold ones.
        metrics.update(warm_percentiles(
            "serve.jobs",
            spans.durations_ms("job")[len(self.documents):]))
        for _ in range(20):
            with spans.span("health"):
                self.client.health()
        metrics["serve.http.health_ms"] = \
            statistics.median(spans.durations_ms("health"))
        metrics.update(self._backend_timings())
        outcome.layers = metrics
        outcome.detail["spans"] = spans.summary()
        outcome.spans = spans.dump()
        return outcome

    def _backend_timings(self) -> Dict[str, float]:
        """``RemoteCacheBackend`` against the same server: the cost of a
        cache entry crossing HTTP."""
        from repro.experiments.cache import LocalDirBackend
        from repro.serve.backend import RemoteCacheBackend
        remote = RemoteCacheBackend(self.server.url)
        local = LocalDirBackend(self.cache_dir)
        fingerprints = [result["fingerprint"]
                        for envelope in self.references
                        for result in json.loads(envelope)["results"]]
        start = time.perf_counter()
        payloads = [remote.get(fingerprint) for fingerprint in fingerprints]
        get_s = time.perf_counter() - start
        if payloads != [local.get(fp) for fp in fingerprints]:
            raise RuntimeError("remote cache reads differ from local ones")
        start = time.perf_counter()
        for index, payload in enumerate(payloads):
            remote.put(f"perf-put-probe-{index:04d}", payload)
        put_s = time.perf_counter() - start
        return {"serve.backend.get_ms": get_s * 1e3 / len(payloads),
                "serve.backend.put_ms": put_s * 1e3 / len(payloads)}

    def _job(self, index: int, spans):
        """submit -> wait -> download; returns ``(seconds, summary,
        envelope or None)``.  The spans of one job share its job id."""
        from repro.api.client import ServeError
        document = self.documents[index % len(self.documents)]
        start = time.perf_counter()
        envelope = None
        summary: Dict[str, Any] = {"state": "failed"}
        try:
            with spans.span("job") as job_span:
                with spans.span("submit") as submit_span:
                    job_id = self.client.submit_document(document)["job"]
                if job_span is not None:
                    job_span.request = submit_span.request = job_id
                with spans.span("wait"):
                    summary = self.client.wait(job_id, timeout=150.0)
                if summary["state"] == "done":
                    with spans.span("result"):
                        envelope = self.client.result_bytes(job_id)
        except ServeError as exc:
            summary = {"state": "failed", "error": str(exc)}
        return time.perf_counter() - start, summary, envelope

    def _jobs(self, count: int, spans):
        """*count* jobs from ``PARALLEL`` closed-loop client threads;
        returns ``(seconds, [(seconds, summary, envelope)] by index)``."""
        start = time.perf_counter()
        with ThreadPoolExecutor(PARALLEL) as pool:
            jobs = list(pool.map(lambda index: self._job(index, spans),
                                 range(count)))
        return time.perf_counter() - start, jobs

    def _references(self) -> List[bytes]:
        """What a local ``run_experiment`` against the same (now full)
        cache writes for each document: the bytes every warm job must
        return exactly, and every cold job apart from ``cache``."""
        from repro.api.document import (envelope_bytes,
                                        experiment_from_dict,
                                        run_experiment)
        return [envelope_bytes(run_experiment(
                    experiment_from_dict(document), jobs=1,
                    cache=self.cache_dir).payload())
                for document in self.documents]

    def _measure(self, seconds: float, spans) -> Outcome:
        scheduler = self.server.service.scheduler
        errors: List[str] = []
        cold_rates: List[float] = []
        blocks: List[List[float]] = []
        counts = {"jobs": 0, "failed": 0, "hits": 0, "misses": 0,
                  "spawned_cold": 0, "spawned_warm": 0}
        self.references: List[bytes] = []

        def check(phase: str, jobs, same: Callable[[bytes, bytes], bool]):
            for index, (_elapsed, summary, envelope) in enumerate(jobs):
                counts["jobs"] += 1
                reference = self.references[index % len(self.documents)]
                if envelope is None:
                    counts["failed"] += 1
                    errors.append(f"{phase} job {index}: {summary}")
                elif not same(envelope, reference):
                    counts["failed"] += 1
                    errors.append(f"{phase} job {index}: envelope differs "
                                  f"from a local run_experiment")

        def one_round() -> None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            before = scheduler.spawned
            cold_s, cold = self._jobs(len(self.documents), spans)
            spawned_cold = scheduler.spawned - before
            if not self.references:
                self.references = self._references()
            _warm_s, warm = self._jobs(self.size["block"], spans)
            spawned_warm = scheduler.spawned - before - spawned_cold

            check("cold", cold, lambda envelope, reference:
                  strip_cache(envelope) == strip_cache(reference))
            check("warm", warm, lambda envelope, reference:
                  envelope == reference)
            if spawned_cold != self.points or spawned_warm != 0:
                counts["failed"] += 1
                errors.append(
                    f"scheduler spawned {spawned_cold} workers cold "
                    f"(expected {self.points}) and {spawned_warm} warm "
                    f"(expected 0)")
            counts["spawned_cold"] += spawned_cold
            counts["spawned_warm"] += spawned_warm
            counts["misses"] += sum(
                summary.get("cache", {}).get("misses", 0)
                for _elapsed, summary, _envelope in cold)
            counts["hits"] += sum(
                summary.get("cache", {}).get("hits", 0)
                for _elapsed, summary, _envelope in warm)
            cold_rates.append(self.points / cold_s)
            blocks.append([elapsed for elapsed, _s, _e in warm])

        peak_rss_mb = repeat_rounds(seconds, one_round)
        rounds = len(blocks)
        median_s = quiet_median(
            [elapsed for block in blocks for elapsed in block])
        return Outcome(
            timings={"work_per_s": max(cold_rates),
                     "latency_p50_ms": median_s * 1e3,
                     "peak_rss_mb": peak_rss_mb},
            attempted=counts["jobs"], failed=counts["failed"],
            errors=errors,
            digest=sha256_json([envelope_digest(envelope)
                                for envelope in self.references]),
            detail={"points": self.points, "rounds": rounds,
                    "cold_points_per_s": cold_rates,
                    "jobs": counts["jobs"]},
            # Per round: each equals a point count when the cache and
            # the scheduler work (spawned_warm: zero).
            layers={"serve.scheduler.spawned_cold":
                        counts["spawned_cold"] / rounds,
                    "serve.scheduler.spawned_warm":
                        counts["spawned_warm"] / rounds,
                    "serve.jobs.cache_hits":
                        counts["hits"] / rounds / self.size["block"],
                    "serve.jobs.cache_misses": counts["misses"] / rounds})


def make(name: str, seed: int, smoke: bool = False):
    size = SIZES["smoke" if smoke else "full"]
    if name == "scorpio-saturated":
        return SystemWorkload(seed, size, "scorpio", "saturated")
    if name == "scorpio-idle":
        return SystemWorkload(seed, size, "scorpio", "idle")
    if name == "directory-unicast":
        return SystemWorkload(seed, size, "directory", "directory",
                              params={"scheme": "LPD"},
                              directory_cache_bytes=8 * 1024)
    if name == "mesh-uniform":
        return MeshWorkload(seed, size)
    if name == "sweep-cold":
        return SweepCold(seed, size)
    if name == "sweep-warm":
        return SweepWarm(seed, size)
    if name == "serve-jobs":
        return ServeJobs(seed, size)
    raise KeyError(f"unknown workload {name!r}; known: {list(WORKLOADS)}")
