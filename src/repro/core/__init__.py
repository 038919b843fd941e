"""SCORPIO's primary contribution, packaged: chip configuration and the
result row and system construction over the ordered-mesh system."""

from repro.core.api import (PROTOCOLS, RunResult, build_system,
                            normalized_runtimes)
from repro.core.config import CHIP_FEATURES, ChipConfig

__all__ = [
    "PROTOCOLS", "RunResult", "build_system", "normalized_runtimes",
    "CHIP_FEATURES", "ChipConfig",
]
