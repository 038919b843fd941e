#!/usr/bin/env python
"""Quickstart: simulate the fabricated 36-core SCORPIO chip.

Builds the Table-1 configuration (6x6 mesh, MOSI snoopy coherence over
the ordered NoC), runs a synthetic SPLASH-2 'barnes' workload on all 36
cores, and prints runtime plus the L2 service-latency statistics the
paper reports.

Run:  python examples/quickstart.py
"""

from repro.api import ChipConfig, benchmark_spec, run_sweep


def main() -> None:
    config = ChipConfig.chip_36core()
    print(f"Simulating {config.n_cores} cores "
          f"({config.noc.width}x{config.noc.height} mesh, "
          f"{config.noc.channel_width_bytes} B channels, "
          f"{config.notification.window}-cycle notification window)")

    [result] = run_sweep([benchmark_spec(
        "barnes", "scorpio", config,
        ops_per_core=100,        # memory operations injected per core
        workload_scale=0.05,     # shrink footprints for a quick run
        think_scale=20.0,        # keep injection in the paper's regime
    )])

    print(f"\nbenchmark          : {result.benchmark}")
    print(f"runtime            : {result.runtime} cycles")
    print(f"operations         : {result.completed_ops} "
          f"(progress {result.progress:.0%})")
    print(f"avg L2 service     : {result.avg_l2_service_latency:.1f} cycles")
    print(f"  served by caches : {result.cache_served_latency:.1f} cycles")
    print(f"  served by memory : {result.memory_served_latency:.1f} cycles")

    print("\ncache-served latency breakdown (cycles):")
    for category, value in sorted(result.breakdown("cache").items()):
        if value:
            print(f"  {category:<15} {value:7.1f}")

    sent = result.stats.get("nic.requests_sent", 0)
    print(f"\ncoherence requests broadcast : {sent:.0f}")
    print(f"ordering wait at the NIC     : "
          f"{result.stats.get('nic.ordering_wait.mean', 0.0):.1f} cycles")


if __name__ == "__main__":
    main()
