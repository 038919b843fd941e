"""Workload generator tests: determinism, parameter effects, suites."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.trace import Trace, TraceOp
from repro.workloads.suites import (ALL_PROFILES, FIG6A_BENCHMARKS,
                                    FIG7_BENCHMARKS, PARSEC, SPLASH2, profile)
from repro.workloads.synthetic import (LINE, PRIVATE_STRIDE, SHARED_BASE,
                                       WorkloadProfile, generate_system_traces,
                                       generate_trace, scaled,
                                       uniform_random_trace)


class TestTraceOps:
    def test_validation(self):
        with pytest.raises(ValueError):
            TraceOp(op="X", addr=0)
        with pytest.raises(ValueError):
            TraceOp(op="R", addr=-1)
        with pytest.raises(ValueError):
            TraceOp(op="R", addr=0, think=-1)

    def test_trace_accessors(self):
        trace = Trace([TraceOp("R", 0), TraceOp("W", 32), TraceOp("R", 32)])
        assert len(trace) == 3
        assert trace.reads == 2 and trace.writes == 1
        assert trace.footprint(32) == 2


class TestGenerator:
    def test_deterministic(self):
        prof = profile("barnes")
        a = generate_trace(prof, core=3, n_ops=50, seed=9)
        b = generate_trace(prof, core=3, n_ops=50, seed=9)
        assert list(a) == list(b)

    def test_seed_changes_trace(self):
        prof = profile("barnes")
        a = generate_trace(prof, core=3, n_ops=50, seed=1)
        b = generate_trace(prof, core=3, n_ops=50, seed=2)
        assert list(a) != list(b)

    def test_cores_have_disjoint_private_regions(self):
        prof = profile("fft")
        t0 = generate_trace(prof, 0, 200, seed=0)
        t1 = generate_trace(prof, 1, 200, seed=0)
        private0 = {op.addr for op in t0 if op.addr < SHARED_BASE}
        private1 = {op.addr for op in t1 if op.addr < SHARED_BASE}
        assert private0 and private1
        assert not (private0 & private1)

    def test_shared_region_overlaps(self):
        prof = profile("canneal")   # heavy sharing
        t0 = generate_trace(prof, 0, 400, seed=0)
        t1 = generate_trace(prof, 1, 400, seed=0)
        shared0 = {op.addr for op in t0 if op.addr >= SHARED_BASE}
        shared1 = {op.addr for op in t1 if op.addr >= SHARED_BASE}
        assert shared0 & shared1

    def test_addresses_line_aligned(self):
        prof = profile("lu")
        for op in generate_trace(prof, 0, 100, seed=0):
            assert op.addr % LINE == 0

    def test_read_fraction_roughly_respected(self):
        prof = WorkloadProfile(name="x", read_fraction=0.9,
                               shared_fraction=0.0)
        trace = generate_trace(prof, 0, 2000, seed=0)
        assert trace.reads / len(trace) > 0.8

    def test_system_traces_one_per_core(self):
        prof = profile("lu")
        traces = generate_system_traces(prof, 36, 10, seed=0)
        assert len(traces) == 36
        assert all(len(t) == 10 for t in traces)

    def test_scaled_shrinks_footprint_and_stretches_think(self):
        prof = profile("canneal")
        small = scaled(prof, 0.1, think_scale=4.0)
        assert small.private_lines < prof.private_lines
        assert small.think_mean == prof.think_mean * 4

    @settings(max_examples=15, deadline=None)
    @given(shared=st.floats(0.0, 1.0), n_ops=st.integers(1, 100))
    def test_property_generation_never_crashes(self, shared, n_ops):
        prof = WorkloadProfile(name="p", shared_fraction=shared)
        trace = generate_trace(prof, 0, n_ops, seed=0)
        assert len(trace) == n_ops


class TestSuites:
    def test_all_paper_benchmarks_present(self):
        for name in ("barnes", "fft", "fmm", "lu", "nlu", "radix",
                     "water-nsq", "water-spatial"):
            assert name in SPLASH2
        for name in ("blackscholes", "canneal", "fluidanimate", "swaptions",
                     "streamcluster", "vips"):
            assert name in PARSEC

    def test_figure_benchmark_lists(self):
        assert len(FIG6A_BENCHMARKS) == 12
        assert set(FIG7_BENCHMARKS) <= set(ALL_PROFILES)

    def test_unknown_profile_raises(self):
        with pytest.raises(KeyError):
            profile("doom3")

    def test_canneal_is_the_big_sharer(self):
        # Characterization sanity: canneal has the largest shared footprint.
        canneal = profile("canneal")
        assert canneal.shared_lines == max(
            p.shared_lines for p in ALL_PROFILES.values())


class TestUniformRandom:
    def test_shared_flag(self):
        shared = uniform_random_trace(0, 50, 8, shared=True, seed=0)
        private = uniform_random_trace(0, 50, 8, shared=False, seed=0)
        assert all(op.addr >= SHARED_BASE for op in shared)
        assert all(op.addr < SHARED_BASE for op in private)

    def test_footprint_bounded(self):
        trace = uniform_random_trace(0, 500, 8, seed=0)
        assert trace.footprint(32) <= 8
