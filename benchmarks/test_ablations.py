"""Ablation benches for the design decisions DESIGN.md calls out.

Not figures from the paper, but the load-bearing mechanisms the paper
argues for — each ablated to show it earns its keep:

* **lookahead bypassing** — 1-cycle vs 3-cycle router path;
* **reserved VC** — removing it deadlocks the ordered vnet under
  conflict-heavy broadcast traffic (the Sec. 3.2 proof, demonstrated);
* **region tracker** — snoop filtering reduces L2 snoop work;
* **notification window length** — ordering latency tracks the window.
"""

from dataclasses import replace

from repro.analysis.figures import FULL
from repro.core import ChipConfig
from repro.cpu.trace import Trace, TraceOp
from repro.experiments import RunSpec, run_sweep
from repro.noc.config import NocConfig
from repro.systems.scorpio import ScorpioSystem

from conftest import run_once

REGIME = FULL.knobs(ops_per_core=80)


def scorpio_runs(benchmark_name, *configs):
    """SCORPIO on *benchmark_name* under each config, as one batch."""
    return run_sweep([RunSpec(benchmark_name, "scorpio", config, **REGIME)
                      for config in configs])


def test_ablation_lookahead_bypass(benchmark):
    def run():
        base = ChipConfig.chip_36core()
        no_bypass = replace(base, noc=replace(base.noc,
                                              lookahead_bypass=False))
        return scorpio_runs("lu", base, no_bypass)

    with_la, without = run_once(benchmark, run)
    print(f"\nAblation: lookahead bypassing")
    print(f"  with bypass    : L2 svc {with_la.avg_l2_service_latency:7.1f} "
          f"cycles, runtime {with_la.runtime}")
    print(f"  without bypass : L2 svc {without.avg_l2_service_latency:7.1f} "
          f"cycles, runtime {without.runtime}")
    assert without.avg_l2_service_latency > with_la.avg_l2_service_latency
    assert with_la.stats.get("noc.router.bypassed", 0) > 0
    assert without.stats.get("noc.router.bypassed", 0) == 0


def test_ablation_reserved_vc_deadlock(benchmark):
    """Without the rVC, conflict-heavy broadcasts wedge the GO-REQ vnet
    (the deadlock the Sec. 3.2 proof rules out)."""

    def run():
        def build(reserved):
            noc = NocConfig(width=3, height=3, reserved_vc=reserved)
            traces = [Trace([TraceOp("W", 0x4000_0000 + (i % 4) * 32, 2)
                             for i in range(6)]) for _ in range(9)]
            return ScorpioSystem(traces=traces, noc=noc)

        healthy = build(reserved=True)
        healthy.run_until_done(150_000)
        wedged = build(reserved=False)
        wedged.run_until_done(150_000)
        return healthy, wedged

    healthy, wedged = run_once(benchmark, run)
    print("\nAblation: reserved VC (deadlock avoidance)")
    print(f"  with rVC    : progress {healthy.progress():.0%} in "
          f"{healthy.engine.cycle} cycles")
    print(f"  without rVC : progress {wedged.progress():.0%} in "
          f"{wedged.engine.cycle} cycles")
    assert healthy.all_cores_finished(), "rVC system must finish"
    assert not wedged.all_cores_finished(), \
        "removing the rVC should deadlock this conflict pattern"


def test_ablation_region_tracker(benchmark):
    def run():
        base = ChipConfig.chip_36core()
        off = replace(base, cache=replace(base.cache,
                                          use_region_tracker=False))
        return scorpio_runs("blackscholes", base, off)

    with_rt, without = run_once(benchmark, run)
    filtered = with_rt.stats.get("l2.snoops.filtered", 0)
    print("\nAblation: region-tracker snoop filtering")
    print(f"  snoops filtered with tracker : {filtered:.0f}")
    print(f"  snoops filtered without      : "
          f"{without.stats.get('l2.snoops.filtered', 0):.0f}")
    assert filtered > 0, "low-sharing workloads must filter many snoops"
    assert without.stats.get("l2.snoops.filtered", 0) == 0


def test_extension_multiple_main_networks(benchmark):
    """Sec. 5.3's scaling proposal: replicated main meshes lift broadcast
    throughput without touching the ordering machinery."""

    def run():
        from repro.systems.multimesh import MultiMeshScorpioSystem
        from repro.systems.scorpio import ScorpioSystem
        from repro.workloads.synthetic import uniform_random_trace

        noc = NocConfig(width=4, height=4)

        def traces():
            return [uniform_random_trace(c, 20, 64, write_fraction=0.5,
                                         think=1, seed=6)
                    for c in range(16)]

        single = ScorpioSystem(traces=traces(), noc=noc)
        single_cycles = single.run_until_done(400_000)
        double = MultiMeshScorpioSystem(traces=traces(), n_meshes=2,
                                        noc=noc)
        double_cycles = double.run_until_done(400_000)
        return single, single_cycles, double, double_cycles

    single, single_cycles, double, double_cycles = run_once(benchmark, run)
    print("\nExtension: multiple main networks (saturating broadcasts)")
    print(f"  1 mesh  : {single_cycles} cycles "
          f"(finished={single.all_cores_finished()})")
    print(f"  2 meshes: {double_cycles} cycles "
          f"(finished={double.all_cores_finished()})")
    assert single.all_cores_finished() and double.all_cores_finished()
    assert double_cycles <= single_cycles * 1.02, \
        "replicating the main network must not slow the system"


def test_ablation_notification_window(benchmark):
    def run():
        base = ChipConfig.chip_36core()
        windows = (13, 26, 52)
        results = scorpio_runs("lu", *(replace(base, notification=replace(
            base.notification, window=window)) for window in windows))
        return {window: result.stats.get("nic.order_latency.mean", 0.0)
                for window, result in zip(windows, results)}

    latencies = run_once(benchmark, run)
    print("\nAblation: notification time-window length")
    for window, latency in latencies.items():
        print(f"  window {window:>3} cycles: mean inject-to-delivery "
              f"{latency:7.1f} cycles")
    assert latencies[13] < latencies[26] < latencies[52], \
        "ordering latency must track the window length"
