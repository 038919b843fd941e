"""Benchmark profiles for the SPLASH-2 and PARSEC suites.

Parameters are qualitative calibrations of well-known characterization
studies (Woo et al. for SPLASH-2; Bienia et al. for PARSEC): relative
working-set sizes, read/write mixes and sharing intensity.  They are not
trace-accurate — the goal is that the *protocol-level* contrasts the paper
measures (indirection vs. broadcast, directory-cache pressure, ordering
delay) are exercised with the right relative weights per benchmark.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple, Union

from repro.cpu.trace import Trace
from repro.workloads.synthetic import (WorkloadProfile,
                                       generate_system_traces, scaled)

# ---------------------------------------------------------------------------
# SPLASH-2
# ---------------------------------------------------------------------------

SPLASH2: Dict[str, WorkloadProfile] = {
    "barnes": WorkloadProfile(
        name="barnes", read_fraction=0.72, shared_fraction=0.30,
        shared_write_fraction=0.25, private_lines=3072, shared_lines=1536,
        hot_fraction=0.15, think_mean=7),
    "fft": WorkloadProfile(
        name="fft", read_fraction=0.65, shared_fraction=0.12,
        shared_write_fraction=0.40, private_lines=8192, shared_lines=1024,
        hot_fraction=0.30, think_mean=5),
    "fmm": WorkloadProfile(
        name="fmm", read_fraction=0.74, shared_fraction=0.22,
        shared_write_fraction=0.20, private_lines=4096, shared_lines=1280,
        hot_fraction=0.20, think_mean=8),
    "lu": WorkloadProfile(
        name="lu", read_fraction=0.70, shared_fraction=0.18,
        shared_write_fraction=0.30, private_lines=2048, shared_lines=768,
        hot_fraction=0.25, think_mean=6),
    "nlu": WorkloadProfile(   # non-contiguous LU: worse locality
        name="nlu", read_fraction=0.70, shared_fraction=0.20,
        shared_write_fraction=0.30, private_lines=6144, shared_lines=1024,
        hot_fraction=0.25, think_mean=6),
    "radix": WorkloadProfile(
        name="radix", read_fraction=0.55, shared_fraction=0.10,
        shared_write_fraction=0.55, private_lines=10240, shared_lines=768,
        hot_fraction=0.35, think_mean=4),
    "water-nsq": WorkloadProfile(
        name="water-nsq", read_fraction=0.76, shared_fraction=0.24,
        shared_write_fraction=0.18, private_lines=1536, shared_lines=1024,
        hot_fraction=0.20, think_mean=9),
    "water-spatial": WorkloadProfile(
        name="water-spatial", read_fraction=0.75, shared_fraction=0.20,
        shared_write_fraction=0.18, private_lines=1792, shared_lines=896,
        hot_fraction=0.20, think_mean=9),
}

# ---------------------------------------------------------------------------
# PARSEC
# ---------------------------------------------------------------------------

PARSEC: Dict[str, WorkloadProfile] = {
    "blackscholes": WorkloadProfile(
        name="blackscholes", read_fraction=0.78, shared_fraction=0.06,
        shared_write_fraction=0.10, private_lines=2560, shared_lines=512,
        hot_fraction=0.30, think_mean=10),
    "canneal": WorkloadProfile(
        name="canneal", read_fraction=0.68, shared_fraction=0.45,
        shared_write_fraction=0.30, private_lines=12288, shared_lines=4096,
        hot_fraction=0.10, think_mean=5),
    "fluidanimate": WorkloadProfile(
        name="fluidanimate", read_fraction=0.70, shared_fraction=0.28,
        shared_write_fraction=0.35, private_lines=3584, shared_lines=1536,
        hot_fraction=0.18, think_mean=6),
    "swaptions": WorkloadProfile(
        name="swaptions", read_fraction=0.77, shared_fraction=0.08,
        shared_write_fraction=0.12, private_lines=1792, shared_lines=512,
        hot_fraction=0.30, think_mean=9),
    "streamcluster": WorkloadProfile(
        name="streamcluster", read_fraction=0.80, shared_fraction=0.35,
        shared_write_fraction=0.08, private_lines=6144, shared_lines=2048,
        hot_fraction=0.12, think_mean=5),
    "vips": WorkloadProfile(
        name="vips", read_fraction=0.72, shared_fraction=0.15,
        shared_write_fraction=0.25, private_lines=4608, shared_lines=1024,
        hot_fraction=0.22, think_mean=7),
}

ALL_PROFILES: Dict[str, WorkloadProfile] = {**SPLASH2, **PARSEC}

# Benchmark sets as used by each figure of the paper.
FIG6A_BENCHMARKS: List[str] = [
    "barnes", "fft", "fmm", "lu", "nlu", "radix", "water-nsq",
    "water-spatial", "blackscholes", "canneal", "fluidanimate", "swaptions",
]
FIG6BC_BENCHMARKS: List[str] = [
    "barnes", "fft", "lu", "blackscholes", "canneal", "fluidanimate",
]
FIG7_BENCHMARKS: List[str] = [
    "blackscholes", "streamcluster", "swaptions", "vips",
]
FIG8_BENCHMARKS: List[str] = [
    "barnes", "fft", "fmm", "lu", "nlu", "radix", "water-nsq",
    "water-spatial",
]
FIG10_BENCHMARKS: List[str] = [
    "barnes", "blackscholes", "canneal", "fft", "fluidanimate", "lu",
]


def profile(name: Union[str, WorkloadProfile]) -> WorkloadProfile:
    """Look up a benchmark profile by name (a profile object passes
    through)."""
    if isinstance(name, WorkloadProfile):
        return name
    try:
        return ALL_PROFILES[name]
    except KeyError:
        raise KeyError(f"unknown benchmark {name!r}; known: "
                       f"{sorted(ALL_PROFILES)}") from None


def benchmark_workload(benchmark: Union[str, WorkloadProfile],
                       ops_per_core: int, workload_scale: float,
                       think_scale: float, seed: int,
                       ) -> Tuple[WorkloadProfile,
                                  Callable[[int], List[Trace]]]:
    """The one benchmark-workload recipe: look *benchmark* up, scale it
    iff a scale is not 1 (``scaled`` clamps, so it is not an identity at
    1), and return ``(profile, build_traces)`` where
    ``build_traces(n_cores)`` generates the per-core traces."""
    prof = profile(benchmark)
    if workload_scale != 1.0 or think_scale != 1.0:
        prof = scaled(prof, workload_scale, think_scale)
    return prof, lambda n_cores: generate_system_traces(
        prof, n_cores, ops_per_core, seed=seed)
