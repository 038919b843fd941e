#!/usr/bin/env python
"""External-trace workflow: generate -> save -> reload -> simulate.

The paper injects Graphite-produced SPLASH-2/PARSEC traces into the
SCORPIO RTL (Sec. 5).  This example shows the equivalent interchange:
synthesize a workload, write it to the plain-text trace format any
external tool can produce, reload it, run it under two protocols, and
export per-run statistics as stable JSON artifacts.

Run:  python examples/trace_file_workflow.py
"""

import json
import tempfile
from pathlib import Path

from repro.api import ChipConfig, experiment_from_dict, run_experiment
from repro.cpu.tracefile import dump_traces, load_traces
from repro.workloads.suites import profile
from repro.workloads.synthetic import generate_system_traces, scaled


def main() -> None:
    config = ChipConfig.variant(4, 4)
    prof = scaled(profile("fft"), 0.05, 15.0)
    traces = generate_system_traces(prof, config.n_cores, 60, seed=2)

    with tempfile.TemporaryDirectory(prefix="scorpio-traces-") as workdir:
        trace_path = Path(workdir) / "fft-16c.trace"
        dump_traces(traces, trace_path)
        size_kb = trace_path.stat().st_size / 1024
        print(f"wrote {trace_path.name} ({size_kb:.1f} KiB, "
              f"{sum(len(t) for t in traces)} ops)")

        reloaded = load_traces(trace_path, expect_cores=config.n_cores)
        assert [list(t) for t in reloaded] == [list(t) for t in traces]
        print("reload verified: byte-exact round trip\n")

        # The trace under SCORPIO and the LPD-D directory baseline, as
        # one experiment document.
        outcome = run_experiment(experiment_from_dict({
            "schema": 1, "name": "trace-file-workflow",
            "configs": {"chip": {"preset": "variant", "width": 4,
                                 "height": 4}},
            "runs": [{"builder": builder, "params": params,
                      "config": "chip", "label": protocol,
                      "workload": {"kind": "trace",
                                   "path": str(trace_path)}}
                     for protocol, builder, params in (
                         ("scorpio", "scorpio", {}),
                         ("lpd", "directory", {"scheme": "LPD"}))]}))

        print(f"{'protocol':<10}{'runtime':>9}{'L2 service':>12}")
        print("-" * 31)
        for result in outcome.results:
            protocol = result.label
            assert result.progress == 1.0
            print(f"{protocol:<10}{result.runtime:>9}"
                  f"{result.avg_l2_service_latency:>11.1f}c")
            # The run's statistics as a sorted-key JSON artifact.
            stats = {name: value for name, value in result.stats.items()
                     if name.startswith(("l2.", "nic.", "noc."))}
            stats_path = Path(workdir) / f"stats-{protocol}.json"
            stats_path.write_text(json.dumps(stats, sort_keys=True,
                                             indent=2))
            print(f"{'':<10}{len(stats)} stats -> {stats_path.name}")


if __name__ == "__main__":
    main()
