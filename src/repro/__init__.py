"""repro — a full Python reproduction of SCORPIO (ISCA 2014).

SCORPIO demonstrates snoopy coherence on a scalable mesh NoC by
decoupling message delivery (an unordered packet-switched main network)
from message ordering (a bufferless, fixed-latency-bound notification
network).  This package rebuilds the whole system: the two networks, the
NIC ordering machinery, the MOSI cache hierarchy, the memory controllers
(the paper's fixed-latency memory model), the LPD / full-bit / HT directory
baselines, the complete Sec.-2 ordered-network lineup (INSO, TokenB,
Timestamp Snooping, Uncorq), INCF in-network snoop filtering, and the
harnesses that regenerate every figure and table of the paper's
evaluation — plus a CLI (``python -m repro``), an SC litmus suite and a
runtime invariant monitor.

Quick start::

    from repro.api import ChipConfig, benchmark_spec, run_sweep
    [result] = run_sweep([benchmark_spec("barnes", "scorpio",
                                         ChipConfig.chip_36core())])
    print(result.runtime)

:mod:`repro.api` is the stable, versioned public surface (config
serialization, experiment documents, the result row whose ``stats``
is a flat dict);
every other module is an internal that may change between versions.
"""

from repro.core import (CHIP_FEATURES, PROTOCOLS, ChipConfig, RunResult,
                        build_system, normalized_runtimes)

__version__ = "1.0.0"

__all__ = [
    "CHIP_FEATURES", "PROTOCOLS", "ChipConfig", "RunResult",
    "build_system", "normalized_runtimes", "__version__",
]
