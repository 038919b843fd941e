"""CLI tests (python -m repro ...) driving main() directly."""

import io

import pytest

from repro.cli import build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture(autouse=True)
def isolated_execution_context(monkeypatch):
    """Shield CLI tests from an exported REPRO_JOBS/REPRO_CACHE_DIR:
    sweep/figure/report fall back to the process execution context, and
    an ambient cache directory would change output (and be polluted)."""
    import repro.experiments.context as context
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.setattr(context, "_context", context.ExecutionContext())


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_bad_protocol(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fft", "--protocol", "mesi"])

    def test_rejects_bad_mesh(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fft", "--mesh", "six-by-six"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fft", "--mesh", "1x6"])

    def test_mesh_parsing(self):
        args = build_parser().parse_args(["run", "fft", "--mesh", "4x4"])
        assert args.mesh == (4, 4)


class TestRunCommand:
    def test_run_small(self):
        code, text = run_cli("run", "fft", "--mesh", "3x3", "--ops", "10",
                             "--scale", "0.02", "--think-scale", "10")
        assert code == 0
        assert "protocol  : scorpio" in text
        assert "progress 100.0%" in text

    def test_run_directory_protocol(self):
        code, text = run_cli("run", "lu", "--mesh", "3x3", "--ops", "10",
                             "--scale", "0.02", "--think-scale", "10",
                             "--protocol", "ht")
        assert code == 0
        assert "protocol  : ht" in text


class TestCompareCommand:
    def test_compare_normalizes_to_lpd(self):
        code, text = run_cli("compare", "fft", "--mesh", "3x3",
                             "--ops", "10", "--scale", "0.02",
                             "--think-scale", "10")
        assert code == 0
        assert "normalized to LPD" in text
        assert "scorpio" in text and "ht" in text
        # The LPD line itself normalizes to 1.000.
        lpd_line = next(line for line in text.splitlines()
                        if line.strip().startswith("lpd"))
        assert "1.000" in lpd_line


class TestSweepCommand:
    ARGS = ("sweep", "fft", "--mesh", "3x3", "--ops", "10",
            "--scale", "0.02", "--think-scale", "10",
            "--protocols", "lpd", "scorpio", "--seeds", "0", "1")

    def test_matrix_runs_and_reports(self):
        code, text = run_cli(*self.ARGS)
        assert code == 0
        assert "4 runs" in text
        # one row per (protocol, seed), all executed fresh
        assert text.count("run") >= 4
        assert "cache" not in text.splitlines()[-1]

    def test_cache_round_trip(self, tmp_path):
        cold_code, cold = run_cli(*self.ARGS, "--cache-dir", str(tmp_path),
                                  "--jobs", "2")
        warm_code, warm = run_cli(*self.ARGS, "--cache-dir", str(tmp_path))
        assert cold_code == warm_code == 0
        assert "4 misses" in cold.splitlines()[-1]
        assert "4 hits" in warm.splitlines()[-1]

        def rows(text):
            return [line.split()[:4] for line in text.splitlines()
                    if line.startswith("fft")]

        # identical numbers, different source column
        assert rows(cold) == rows(warm)
        assert all("cache" in line for line in warm.splitlines()
                   if line.startswith("fft"))


class TestListBuilders:
    def test_lists_registry(self):
        code, text = run_cli("sweep", "--list-builders")
        assert code == 0
        for name in ("scorpio", "directory", "inso", "timestamp",
                     "uncorq", "litmus", "multimesh", "tokenb"):
            assert name in text
        assert "expiration_window=20" in text

    def test_lists_params_for_every_builder(self):
        """Each builder row must introspect its accepted params (or say
        '(none)') so users never have to read builders.py."""
        from repro.experiments import list_builders
        code, text = run_cli("sweep", "--list-builders")
        assert code == 0
        assert text.count("params:") == len(list_builders())
        assert "params: (none)" in text          # scorpio & friends
        assert "scheme='LPD'" in text            # defaults rendered
        assert "name=<required>" in text         # litmus required params

    def test_lists_workload_kinds(self):
        code, text = run_cli("sweep", "--list-builders")
        assert code == 0
        assert "workload kinds" in text
        for kind in ("benchmark", "locks", "barrier", "lone_write",
                     "idle"):
            assert kind in text
        assert "acquisitions_per_core=4" in text

    def test_sweep_without_benchmarks_errors(self):
        code, text = run_cli("sweep")
        assert code == 2
        assert "at least one benchmark" in text


try:
    import tomllib                                     # noqa: F401
    _HAS_TOML = True
except ImportError:   # pragma: no cover - Python < 3.11
    try:
        import tomli                                   # noqa: F401
        _HAS_TOML = True
    except ImportError:
        _HAS_TOML = False

needs_toml = pytest.mark.skipif(
    not _HAS_TOML, reason="TOML documents need tomllib (3.11+) or tomli")

DOCUMENT = """\
schema = 1
name = "cli-doc"
description = "one tiny run"

[configs.mesh3x3]
preset = "variant"
width = 3
height = 3

[[runs]]
builder = "scorpio"
config = "mesh3x3"
label = "s"
workload = {{ kind = "benchmark", name = "fft", ops_per_core = {ops}, workload_scale = 0.02, think_scale = 10.0, seed = 0 }}
"""


@needs_toml
class TestRunFileCommand:
    def _write(self, tmp_path, ops=4):
        path = tmp_path / "exp.toml"
        path.write_text(DOCUMENT.format(ops=ops))
        return path

    def test_runs_document_and_writes_envelope(self, tmp_path):
        import json
        path = self._write(tmp_path)
        output = tmp_path / "results.json"
        code, text = run_cli("run-file", str(path),
                             "--output", str(output))
        assert code == 0
        assert "cli-doc" in text and "100.0%" in text
        envelope = json.loads(output.read_text())
        assert envelope["schema"] == 1
        assert envelope["experiment"] == "cli-doc"
        assert len(envelope["results"]) == 1
        assert envelope["results"][0]["progress"] == 1.0

    def test_cache_dir_recalls_runs(self, tmp_path):
        path = self._write(tmp_path)
        cold_code, cold = run_cli("run-file", str(path),
                                  "--cache-dir", str(tmp_path / "c"))
        warm_code, warm = run_cli("run-file", str(path),
                                  "--cache-dir", str(tmp_path / "c"))
        assert cold_code == warm_code == 0
        assert "  run" in cold and "  cache" in warm

    def test_invalid_document_exits_2(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("schema = 1\nname = 'x'\nbogus = 3\n")
        code, text = run_cli("run-file", str(path))
        assert code == 2
        assert "unknown key" in text

    def test_report_flag_writes_html_and_keeps_envelope(self, tmp_path):
        path = self._write(tmp_path)
        plain = tmp_path / "plain.json"
        reported = tmp_path / "reported.json"
        code_a, _ = run_cli("run-file", str(path),
                            "--output", str(plain))
        code_b, text = run_cli("run-file", str(path),
                               "--output", str(reported),
                               "--report", str(tmp_path / "obs"))
        assert code_a == code_b == 0
        assert "observability report ->" in text
        html = (tmp_path / "obs" / "report.html").read_text()
        assert html.count('<svg class="mesh"') > 0
        # The envelope is byte-identical with and without --report.
        assert plain.read_bytes() == reported.read_bytes()


@needs_toml
class TestReportHtmlCommand:
    def test_runs_document_and_writes_report(self, tmp_path):
        path = tmp_path / "exp.toml"
        path.write_text(DOCUMENT.format(ops=4))
        code, text = run_cli("report-html", str(path),
                             "--output", str(tmp_path / "obs"))
        assert code == 0
        assert "observability report ->" in text
        html = (tmp_path / "obs" / "report.html").read_text()
        assert "cli-doc" in html and "Sweep progress" in html

    def test_invalid_document_exits_2(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("schema = 1\nname = 'x'\nbogus = 3\n")
        code, text = run_cli("report-html", str(path))
        assert code == 2
        assert "unknown key" in text


@needs_toml
class TestDescribeCommand:
    def test_prints_resolved_document(self, tmp_path):
        import json
        path = tmp_path / "exp.toml"
        path.write_text(DOCUMENT.format(ops=4))
        code, text = run_cli("describe", str(path))
        assert code == 0
        resolved = json.loads(text)
        assert resolved["name"] == "cli-doc"
        assert resolved["runs"][0]["config"]["noc"]["width"] == 3

    def test_invalid_document_exits_2(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("name = 'missing schema'\n")
        code, text = run_cli("describe", str(path))
        assert code == 2
        assert "schema" in text

    def test_checked_in_documents_all_describe(self):
        """Every shipped example document must stay loadable."""
        from pathlib import Path
        docs = Path(__file__).resolve().parent.parent / "examples" \
            / "experiments"
        paths = sorted(docs.glob("*.toml"))
        assert len(paths) >= 5
        for path in paths:
            code, _text = run_cli("describe", str(path))
            assert code == 0, path


class TestLitmusCommand:
    def test_parallel_cached_suite(self, tmp_path):
        cold_code, cold = run_cli("litmus", "--jobs", "2",
                                  "--cache-dir", str(tmp_path))
        warm_code, warm = run_cli("litmus", "--cache-dir", str(tmp_path))
        assert cold_code == warm_code == 0
        assert cold == warm
        assert "5/5 litmus tests passed" in warm
        # the warm pass recalled every (program, seed) execution
        from repro.experiments import ResultCache
        assert ResultCache(tmp_path).entries() == 15


class TestFigureCommand:
    def test_list(self):
        code, text = run_cli("figure", "--list")
        assert code == 0
        for fig_id in ("fig6a", "fig7", "fig9", "table1"):
            assert fig_id in text

    def test_no_id_lists(self):
        code, text = run_cli("figure")
        assert code == 0
        assert "available figures" in text

    def test_unknown_id(self):
        code, text = run_cli("figure", "fig99")
        assert code == 2
        assert "unknown figure" in text

    def test_keyerror_inside_a_reducer_is_not_an_unknown_id(
            self, monkeypatch, tmp_path):
        """``figure`` / ``report`` exit 2 for a mistyped id only; a
        KeyError raised by a registered figure's own reducer (a stat
        some builder stopped exporting) propagates, traceback and all."""
        from repro.analysis.figures import FIGURES, Figure
        from repro.analysis.report import build_report

        def reduce(results):
            return {}["system.reorder_buffer_peak"]

        monkeypatch.setitem(FIGURES, "broken",
                            Figure("broken", "a broken reducer", reduce))
        for call in (lambda: run_cli("figure", "broken"),
                     lambda: run_cli("report", str(tmp_path), "--figures",
                                     "broken"),
                     lambda: build_report(tmp_path, figures=["broken"])):
            with pytest.raises(KeyError, match="reorder_buffer_peak"):
                call()

    def test_table1_renders(self):
        code, text = run_cli("figure", "table1")
        assert code == 0
        assert "6x6 mesh" in text
        assert "MOSI" in text

    def test_table2_renders(self):
        code, text = run_cli("figure", "table2")
        assert code == 0
        assert "SCORPIO" in text and "TILE64" in text

    def test_fig9_renders(self):
        code, text = run_cli("figure", "fig9")
        assert code == 0
        assert "nic_router" in text
        assert "28.8" in text


class TestBenchCommand:
    def test_smoke_bench_writes_report(self, tmp_path):
        import json
        path = tmp_path / "BENCH_4.json"
        code, text = run_cli("bench", "--smoke", "--output", str(path))
        assert code == 0
        assert "speedup" in text
        report = json.loads(path.read_text())
        assert report["smoke"] is True
        assert set(report["workloads"]) == {"fft-low-injection",
                                            "fft-saturated"}
        for row in report["workloads"].values():
            assert row["cycles"] > 0
            assert row["wall_seconds_quiescence_on"] > 0
            assert row["wall_seconds_journal_on"] > 0
            assert "journal_overhead" in row

    def test_max_journal_overhead_threshold_fails_when_impossible(
            self, tmp_path):
        """A threshold no real run can meet (journal-on faster than
        half the journal-off time) must fail loudly, proving the gate
        is wired through the CLI."""
        path = tmp_path / "BENCH_X.json"
        with pytest.raises(AssertionError, match="journal-on overhead"):
            run_cli("bench", "--smoke", "--output", str(path),
                    "--max-journal-overhead", "-0.5")


class TestFeaturesCommand:
    def test_prints_table1(self):
        code, text = run_cli("features")
        assert code == 0
        assert "IBM 45 nm SOI" in text
        assert "notification" in text


class TestTraceCommand:
    def test_trace_roundtrip(self, tmp_path):
        from repro.cpu.tracefile import dump_traces
        from repro.workloads.suites import profile
        from repro.workloads.synthetic import generate_system_traces, scaled

        prof = scaled(profile("fft"), 0.02, 10.0)
        traces = generate_system_traces(prof, 9, 10, seed=1)
        path = tmp_path / "t.trace"
        dump_traces(traces, path)
        code, text = run_cli("trace", str(path), "--mesh", "3x3")
        assert code == 0
        assert "progress 100.0%" in text

    def test_trace_bad_file(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("not a trace\n")
        from repro.cpu.tracefile import TraceFormatError
        with pytest.raises(TraceFormatError):
            run_cli("trace", str(path), "--mesh", "3x3")


class TestReportCommand:
    def test_report_static_figures(self, tmp_path):
        code, text = run_cli("report", str(tmp_path / "out"),
                             "--figures", "table1", "fig9")
        assert code == 0
        assert (tmp_path / "out" / "table1.txt").exists()
        assert (tmp_path / "out" / "index.md").exists()
        assert "table1" in text

    def test_report_unknown_figure(self, tmp_path):
        code, text = run_cli("report", str(tmp_path), "--figures", "figX")
        assert code == 2
        assert "unknown" in text
