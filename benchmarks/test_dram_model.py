"""Memory-model fidelity ablation — fixed latency vs banked DDR2.

The paper's RTL methodology replaces the Cadence DDR2 IP with a
"functional memory model with fully-pipelined 90-cycle latency"; this
repo defaults to the same.  The banked model quantifies what that
substitution assumes:

* **light DRAM load** (the regime of the paper's warm-cache workloads):
  banked and fixed agree — means within a few cycles, runtimes within
  a percent — so the fixed model is adequate for the relative-runtime
  claims of Figures 6/7/8.
* **heavy DRAM load** (compulsory-miss storms): the fully-pipelined
  assumption breaks — a real device's banks and shared data bus queue,
  spreading and raising the memory-served latency.  Any study that
  drives DRAM near its bandwidth limit needs ``MemoryConfig(banked=
  True)``.
"""

from repro.analysis.figures import FULL, chip
from repro.memory.controller import MemoryConfig
from repro.systems.scorpio import ScorpioSystem
from repro.workloads.suites import profile
from repro.workloads.synthetic import generate_system_traces, scaled

from conftest import MAX_CYCLES, SEED, run_once

REGIMES = {"heavy": FULL.think_scale, "light": 4 * FULL.think_scale}


def _run(name, banked, think_scale):
    config = chip(6, 6)
    prof = scaled(profile(name), FULL.workload_scale, think_scale)
    traces = generate_system_traces(prof, config.n_cores,
                                    FULL.ops_per_core, seed=SEED)
    system = ScorpioSystem(traces=traces, noc=config.noc,
                           notification=config.notification,
                           memory=MemoryConfig(banked=banked))
    runtime = system.run_until_done(MAX_CYCLES)
    assert system.all_cores_finished()
    hist = system.stats.histograms.get("l2.miss_latency.memory")
    spread = ((hist.maximum or 0) - (hist.minimum or 0)) \
        if hist and hist.count else 0.0
    mean = hist.mean if hist and hist.count else 0.0
    hits = sum(v for k, v in system.stats.counters.items()
               if ".row_hits" in k)
    total = sum(v for k, v in system.stats.counters.items()
                if ".row_" in k)
    return dict(runtime=runtime, mean=mean, spread=spread,
                row_hit_rate=hits / total if total else 0.0)


def test_dram_banked_vs_fixed(benchmark):
    def sweep():
        return {regime: {banked: _run("fft", banked, think)
                         for banked in (False, True)}
                for regime, think in REGIMES.items()}

    data = run_once(benchmark, sweep)

    print("\nMemory model ablation — fixed 90-cycle vs banked DDR2 "
          "(36 cores, fft)")
    print(f"{'regime':<8}{'model':<8}{'runtime':>9}"
          f"{'mem-served mean':>17}{'spread':>8}{'row hits':>10}")
    for regime, rows in data.items():
        for banked, row in rows.items():
            label = "banked" if banked else "fixed"
            print(f"{regime:<8}{label:<8}{row['runtime']:>9}"
                  f"{row['mean']:>16.1f}c{row['spread']:>8.0f}"
                  f"{row['row_hit_rate']:>9.1%}")
    print("light load: the paper's fully-pipelined substitution is "
          "adequate;\nheavy load: real banks/bus queue — the idealized "
          "model hides bandwidth limits.")

    light, heavy = data["light"], data["heavy"]
    # Light load: the substitution is adequate (the paper's regime).
    assert 0.9 < light[True]["mean"] / light[False]["mean"] < 1.25
    assert 0.95 < light[True]["runtime"] / light[False]["runtime"] < 1.05
    # Heavy load: the banked model exposes queueing the fixed model
    # cannot represent.
    assert heavy[True]["mean"] > 1.5 * heavy[False]["mean"]
    assert heavy[True]["spread"] > 4 * heavy[False]["spread"]
    # Structural signatures of the banked model in both regimes.
    for regime in data.values():
        assert regime[True]["row_hit_rate"] > 0.0
        assert regime[True]["runtime"] >= 0.95 * regime[False]["runtime"]