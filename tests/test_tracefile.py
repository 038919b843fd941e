"""Trace file round-trip and format-error tests (repro.cpu.tracefile)."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.trace import Trace, TraceOp
from repro.cpu.tracefile import (MAGIC, TraceFormatError, dump_traces,
                                 load_traces)

ADDR = 0x4000_0000


def roundtrip(traces, expect_cores=0):
    buf = io.StringIO()
    dump_traces(traces, buf)
    buf.seek(0)
    return load_traces(buf, expect_cores)


class TestRoundTrip:
    def test_simple(self):
        traces = [
            Trace([TraceOp("R", ADDR, 3), TraceOp("W", ADDR + 32, 1)]),
            Trace([TraceOp("A", 0x5000_0000, 10)]),
        ]
        loaded = roundtrip(traces)
        assert len(loaded) == 2
        assert list(loaded[0]) == list(traces[0])
        assert list(loaded[1]) == list(traces[1])

    def test_empty_core_preserved(self):
        traces = [Trace([]), Trace([TraceOp("R", ADDR, 1)])]
        loaded = roundtrip(traces)
        assert len(loaded) == 2
        assert len(loaded[0]) == 0

    def test_expect_cores_pads(self):
        loaded = roundtrip([Trace([TraceOp("R", ADDR, 1)])], expect_cores=9)
        assert len(loaded) == 9
        assert all(len(t) == 0 for t in loaded[1:])

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "bench.trace"
        traces = [Trace([TraceOp("W", ADDR + 64 * i, i + 1)])
                  for i in range(4)]
        dump_traces(traces, path)
        loaded = load_traces(path)
        assert [list(t) for t in loaded] == [list(t) for t in traces]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(
        st.lists(st.tuples(st.sampled_from("RWA"),
                           st.integers(min_value=0, max_value=1 << 40),
                           st.integers(min_value=0, max_value=10_000)),
                 max_size=20),
        min_size=1, max_size=8))
    def test_roundtrip_property(self, spec):
        traces = [Trace([TraceOp(op, addr, think)
                         for op, addr, think in ops]) for ops in spec]
        loaded = roundtrip(traces)
        assert [list(t) for t in loaded] == [list(t) for t in traces]


class TestFormatErrors:
    def test_missing_magic(self):
        with pytest.raises(TraceFormatError, match="expected"):
            load_traces(io.StringIO("core 0\nR 0x0 1\n"))

    def test_empty_file(self):
        with pytest.raises(TraceFormatError, match="empty"):
            load_traces(io.StringIO(""))

    def test_op_before_core_header(self):
        with pytest.raises(TraceFormatError, match="before any"):
            load_traces(io.StringIO(f"{MAGIC}\nR 0x0 1\n"))

    def test_duplicate_core(self):
        text = f"{MAGIC}\ncore 0\ncore 0\n"
        with pytest.raises(TraceFormatError, match="duplicate"):
            load_traces(io.StringIO(text))

    def test_bad_op_kind(self):
        text = f"{MAGIC}\ncore 0\nX 0x0 1\n"
        with pytest.raises(TraceFormatError, match="op must be"):
            load_traces(io.StringIO(text))

    def test_bad_field_count(self):
        text = f"{MAGIC}\ncore 0\nR 0x0\n"
        with pytest.raises(TraceFormatError, match="expected"):
            load_traces(io.StringIO(text))

    def test_bad_number(self):
        text = f"{MAGIC}\ncore 0\nR zebra 1\n"
        with pytest.raises(TraceFormatError, match="not a number"):
            load_traces(io.StringIO(text))

    def test_negative_core(self):
        text = f"{MAGIC}\ncore -1\n"
        with pytest.raises(TraceFormatError, match="negative"):
            load_traces(io.StringIO(text))

    def test_too_many_cores_for_expectation(self):
        text = f"{MAGIC}\ncore 11\nR 0x0 1\n"
        with pytest.raises(TraceFormatError, match="expected"):
            load_traces(io.StringIO(text), expect_cores=9)

    def test_comments_and_blanks_ignored(self):
        text = f"{MAGIC}\n\n# hello\ncore 0\n# op follows\nR 0x20 4\n\n"
        loaded = load_traces(io.StringIO(text))
        assert list(loaded[0]) == [TraceOp("R", 0x20, 4)]


def fft_traces(n_cores=9, ops=10):
    from repro.workloads.suites import profile
    from repro.workloads.synthetic import generate_system_traces, scaled
    return generate_system_traces(scaled(profile("fft"), 0.02, 10.0),
                                  n_cores, ops, seed=1)


def trace_spec(path, width=3):
    from repro.core import ChipConfig
    from repro.experiments import SystemSpec
    return SystemSpec("scorpio", ChipConfig.variant(width, width),
                      workload={"kind": "trace", "path": str(path)})


def trace_run(path, protocol, config):
    """``execute_point`` of a trace-workload spec under *protocol* (the
    row's ``protocol`` column is *protocol*, as ``repro trace`` labels
    it)."""
    from repro.core.api import builder_of
    from repro.experiments import SystemSpec, execute_point
    builder, params = builder_of(protocol)
    return execute_point(SystemSpec(
        builder, config, params=params,
        workload={"kind": "trace", "path": str(path)}, protocol=protocol))


class TestApiIntegration:
    def test_run_trace_file(self, tmp_path):
        from repro.core import ChipConfig

        config = ChipConfig.variant(3, 3)
        traces = fft_traces()
        path = tmp_path / "fft.trace"
        dump_traces(traces, path)

        result = trace_run(path, "scorpio", config)
        assert result.progress == 1.0
        assert result.completed_ops == sum(len(t) for t in traces)

    @pytest.mark.parametrize("protocol", ["scorpio", "lpd", "ht", "fullbit"])
    def test_run_trace_file_equals_a_hand_built_run(self, tmp_path,
                                                    protocol):
        """``execute_point`` of a trace-workload spec: its row equals
        a hand-built run of the same traces."""
        from repro.core import ChipConfig
        from repro.core.api import RunResult, build_system

        config = ChipConfig.variant(3, 3)
        path = tmp_path / "fft.trace"
        dump_traces(fft_traces(), path)
        system = build_system(protocol, load_traces(path, 9), config)
        system.run_until_done(400_000)
        reference = RunResult(
            protocol=protocol, benchmark=str(path), n_cores=system.n_nodes,
            runtime=system.engine.cycle,
            completed_ops=system.total_completed_ops(),
            progress=system.progress(), stats=system.stats.snapshot())

        assert trace_run(path, protocol, config) == reference


class TestTraceWorkload:
    """The ``trace`` workload kind: keyed by path and content, parsed
    from the bytes it was keyed by."""

    def test_editing_one_byte_changes_the_fingerprint(self, tmp_path):
        path = tmp_path / "fft.trace"
        dump_traces(fft_traces(), path)
        before = trace_spec(path).fingerprint()
        text = path.read_text()
        # One think time (" 1\n" would first hit "core 1", which makes
        # the file malformed: a duplicate core).
        path.write_text(text.replace(" 5\n", " 6\n", 1))
        assert trace_spec(path).fingerprint() != before

    def test_cache_recall_equals_the_fresh_row(self, tmp_path):
        from repro.experiments import run_sweep
        path = tmp_path / "fft.trace"
        dump_traces(fft_traces(), path)
        fresh, = run_sweep([trace_spec(path)], cache=str(tmp_path / "c"))
        recalled, = run_sweep([trace_spec(path)], cache=str(tmp_path / "c"))
        assert not fresh.cached and recalled.cached
        assert recalled == fresh
        assert recalled.payload() == fresh.payload()
        assert fresh.benchmark == str(path)

    @pytest.mark.parametrize("text, match", [
        (f"{MAGIC}\ncore 0\nR zebra 1\n", "not a number"),
        (f"{MAGIC}\ncore 11\nR 0x0 1\n", "only 9 cores expected"),
    ])
    def test_bad_file_raises_before_any_cycle(self, tmp_path, text, match):
        from repro.experiments import execute_point
        path = tmp_path / "bad.trace"
        path.write_text(text)
        with pytest.raises(TraceFormatError, match=match):
            execute_point(trace_spec(path),
                          instrument=lambda system: pytest.fail("built"))

    def test_unreadable_file_is_a_document_error(self, tmp_path):
        from repro.api import DocumentError, experiment_from_dict
        document = {"schema": 1, "name": "t", "runs": [{
            "builder": "scorpio",
            "workload": {"kind": "trace",
                         "path": str(tmp_path / "missing.trace")}}]}
        with pytest.raises(DocumentError, match="cannot read trace file"):
            experiment_from_dict(document)

    def test_run_file_and_describe_accept_the_kind(self, tmp_path):
        import json

        from repro.cli import main
        path = tmp_path / "fft.trace"
        dump_traces(fft_traces(), path)
        document = tmp_path / "doc.json"
        document.write_text(json.dumps({
            "schema": 1, "name": "traced",
            "configs": {"m": {"preset": "variant", "width": 3,
                              "height": 3}},
            "runs": [{"builder": "directory", "config": "m",
                      "params": {"scheme": "HT"},
                      "workload": {"kind": "trace", "path": str(path)}}]}))
        out = io.StringIO()
        assert main(["describe", str(document)], out=out) == 0
        workload = json.loads(out.getvalue())["runs"][0]["workload"]
        assert workload["kind"] == "trace" and len(workload["sha256"]) == 64
        out = io.StringIO()
        assert main(["run-file", str(document)], out=out) == 0
        assert "100.0%" in out.getvalue()
