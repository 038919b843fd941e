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

from repro.core import ChipConfig
from repro.core.api import run_trace_file
from repro.cpu.tracefile import dump_traces
from repro.workloads.patterns import (migratory_traces,
                                      producer_consumer_traces)

CONFIG = ChipConfig.variant(3, 3)
PROTOCOLS = {"SCORPIO": "scorpio", "LPD-D": "lpd"}
PATTERNS = {
    "Migratory blocks: 9 cores take turns read-modify-writing 2 blocks, "
    "2 rounds": migratory_traces(9, rounds=2, blocks=2, lines_per_block=2),
    "Producer-consumer: core 0 fills a 4-line buffer, 5 consumers read "
    "it, 3 rounds": producer_consumer_traces(5, rounds=3, buffer_lines=4),
}


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        for title, traces in PATTERNS.items():
            path = Path(workdir) / "pattern.trace"
            dump_traces(traces, path)   # cores beyond the pattern idle
            print(f"{title}\n{'system':<10}{'runtime':>9}"
                  f"{'handoff latency':>17}{'data forwards':>15}"
                  f"{'writebacks':>12}")
            for label, protocol in PROTOCOLS.items():
                result = run_trace_file(path, protocol, CONFIG)
                assert result.progress == 1.0, f"{label} did not finish"
                frame = result.frame
                print(f"{label:<10}{result.runtime:>9}"
                      f"{result.cache_served_latency:>16.1f}c"
                      f"{frame.value('l2.data_forwards'):>15.0f}"
                      f"{frame.value('mc.writebacks_received'):>12.0f}")
            print()


if __name__ == "__main__":
    main()
