"""SCORPIO's primary contribution, packaged: chip configuration and the
high-level build/run API over the ordered-mesh system."""

from repro.core.api import (PROTOCOLS, RunResult, build_system,
                            normalized_runtimes, run_benchmark,
                            run_trace_file)
from repro.core.config import CHIP_FEATURES, ChipConfig

__all__ = [
    "PROTOCOLS", "RunResult", "build_system", "normalized_runtimes", "run_benchmark", "run_trace_file",
    "CHIP_FEATURES", "ChipConfig",
]
