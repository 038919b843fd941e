"""Synthetic SPLASH-2 / PARSEC workload generation, plus lock/barrier
and classic sharing-pattern (migratory, producer-consumer) generators."""

from repro.workloads.locks import barrier_traces, lock_contention_traces
from repro.workloads.patterns import (migratory_traces,
                                      producer_consumer_traces)
from repro.workloads.suites import (ALL_PROFILES, FIG6A_BENCHMARKS,
                                    FIG6BC_BENCHMARKS, FIG7_BENCHMARKS,
                                    FIG8_BENCHMARKS, FIG10_BENCHMARKS,
                                    PARSEC, SPLASH2, profile)
from repro.workloads.synthetic import (WorkloadProfile, generate_system_traces,
                                       generate_trace, scaled,
                                       uniform_random_trace)

__all__ = [
    "ALL_PROFILES", "PARSEC", "SPLASH2", "profile",
    "FIG6A_BENCHMARKS", "FIG6BC_BENCHMARKS", "FIG7_BENCHMARKS",
    "FIG8_BENCHMARKS", "FIG10_BENCHMARKS",
    "WorkloadProfile", "generate_system_traces", "generate_trace", "scaled",
    "uniform_random_trace",
    "barrier_traces", "lock_contention_traces",
    "migratory_traces", "producer_consumer_traces",
]
