#!/usr/bin/env python
"""Sharing-pattern studies: migratory data and producer-consumer.

Two classic communication idioms, written as trace files and run on a
3x3 chip under SCORPIO and LPD-D.  Migratory blocks change owner on
every visit; producer-consumer rounds invalidate and re-share a buffer.
Both are cache-to-cache transfer patterns — where in-network ordering's
lack of indirection shows up directly in the handoff latency.  (Their
protocol-level signatures — ownership position, O_D dirty sharing, no
spurious writebacks — are checked in tests/test_sharing_patterns.py.)

Run:  python examples/sharing_patterns.py
"""

import tempfile
from pathlib import Path

from repro.api import experiment_from_dict, run_experiment
from repro.cpu.tracefile import dump_traces
from repro.workloads.patterns import (migratory_traces,
                                      producer_consumer_traces)

# label -> (builder, params): SCORPIO and the LPD-D directory baseline.
SYSTEMS = {"SCORPIO": ("scorpio", {}),
           "LPD-D": ("directory", {"scheme": "LPD"})}
PATTERNS = {
    "Migratory blocks: 9 cores take turns read-modify-writing 2 blocks, "
    "2 rounds": migratory_traces(9, rounds=2, blocks=2, lines_per_block=2),
    "Producer-consumer: core 0 fills a 4-line buffer, 5 consumers read "
    "it, 3 rounds": producer_consumer_traces(5, rounds=3, buffer_lines=4),
}


def document(path: Path) -> dict:
    """Both systems on the trace file *path*, on a 3x3 chip."""
    return {"schema": 1, "name": "sharing-patterns",
            "configs": {"chip": {"preset": "variant", "width": 3,
                                 "height": 3}},
            "runs": [{"builder": builder, "params": params,
                      "config": "chip", "label": label,
                      "workload": {"kind": "trace", "path": str(path)}}
                     for label, (builder, params) in SYSTEMS.items()]}


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        for title, traces in PATTERNS.items():
            path = Path(workdir) / "pattern.trace"
            dump_traces(traces, path)   # cores beyond the pattern idle
            print(f"{title}\n{'system':<10}{'runtime':>9}"
                  f"{'handoff latency':>17}{'data forwards':>15}"
                  f"{'writebacks':>12}")
            outcome = run_experiment(experiment_from_dict(document(path)))
            for result in outcome.results:
                assert result.progress == 1.0, \
                    f"{result.label} did not finish"
                stats = result.stats
                print(f"{result.label:<10}{result.runtime:>9}"
                      f"{result.cache_served_latency:>16.1f}c"
                      f"{stats.get('l2.data_forwards', 0.0):>15.0f}"
                      f"{stats.get('mc.writebacks_received', 0.0):>12.0f}")
            print()


if __name__ == "__main__":
    main()
