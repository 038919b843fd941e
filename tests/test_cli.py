"""CLI tests (python -m repro ...) driving main() directly."""

import io

import pytest

from repro.cli import build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture(autouse=True)
def isolated_environment(monkeypatch):
    """Shield CLI tests from an exported REPRO_JOBS/REPRO_CACHE_DIR:
    every verb that simulates reads them, and an ambient cache directory
    would change output (and be polluted)."""
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)


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


def table_rows(text):
    """The rows of run-file's table as ``[label, benchmark, protocol,
    seed, runtime, progress, source]`` (an empty label is ``""``; a
    label wider than its column runs into the benchmark)."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("label ")) + 2
    rows = []
    for line in lines[start:]:
        if line.startswith(("litmus ", "cache:", "results ->")):
            break
        head, *tail = line.rsplit(None, 5)
        rows.append([head[:14].strip(), head[14:].strip(), *tail])
    return rows


def verdict_lines(text):
    return [line for line in text.splitlines()
            if line.startswith("litmus ")]


class TestRunCommand:
    def test_run_small(self):
        code, text = run_cli("run", "fft", "--mesh", "3x3", "--ops", "10",
                             "--scale", "0.02", "--think-scale", "10")
        assert code == 0
        [row] = table_rows(text)
        assert row[:4] == ["", "fft", "scorpio", "0"]
        assert row[5:] == ["100.0%", "run"]

    def test_a_bad_repro_jobs_exits_2(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "x")
        code, text = run_cli("run", "fft", "--mesh", "3x3", "--ops", "5")
        assert code == 2
        assert text == "error: REPRO_JOBS must be an integer, got 'x'\n"

    def test_run_directory_protocol(self):
        code, text = run_cli("run", "lu", "--mesh", "3x3", "--ops", "10",
                             "--scale", "0.02", "--think-scale", "10",
                             "--protocol", "ht")
        assert code == 0
        [row] = table_rows(text)
        assert row[1:3] == ["lu", "ht"]
        assert row[5] == "100.0%"


class TestSweepCommand:
    ARGS = ("sweep", "fft", "--mesh", "3x3", "--ops", "10",
            "--scale", "0.02", "--think-scale", "10",
            "--protocols", "lpd", "scorpio", "--seeds", "0", "1")

    def test_matrix_runs_and_reports(self):
        code, text = run_cli(*self.ARGS)
        assert code == 0
        assert "4 runs" in text
        # one row per (protocol, seed), all executed fresh
        assert [row[6] for row in table_rows(text)] == ["run"] * 4
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
                    if line.split()[:1] == ["fft"]]

        # identical numbers, different source column
        assert len(rows(cold)) == len(rows(warm)) == 4
        assert rows(cold) == rows(warm)
        assert [row[6] for row in table_rows(cold)] == ["run"] * 4
        assert [row[6] for row in table_rows(warm)] == ["cache"] * 4

    @pytest.mark.parametrize("verb, where", [
        ("sweep", "flag"), ("sweep", "flag-below"), ("sweep", "env"),
        ("sweep", "read-only"), ("serve", "flag"), ("serve", "env")])
    def test_unusable_cache_dir_is_refused_before_any_point(
            self, tmp_path, monkeypatch, verb, where):
        """A cache directory that cannot be made is an ``error:`` line
        and exit 2, whether ``--cache-dir`` or ``REPRO_CACHE_DIR`` names
        it, or it is not writable: nothing is simulated or served
        first."""
        import repro.experiments.sweep as sweep_mod
        import repro.serve.server as server_mod
        monkeypatch.setattr(sweep_mod, "execute_point",
                            lambda *a, **k: pytest.fail("a point ran"))
        monkeypatch.setattr(server_mod, "serve",
                            lambda *a, **k: pytest.fail("served"))
        blocker = tmp_path / "file"
        blocker.write_text("")
        cache = blocker / "sub" if where == "flag-below" else blocker
        if where == "read-only":
            import os
            cache = tmp_path / "ro"
            monkeypatch.setattr(os, "access", lambda *a, **k: False)
        argv = (self.ARGS[:4] if verb == "sweep"
                else ("serve", "--port", "0"))
        if where == "env":
            monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
        else:
            argv += ("--cache-dir", str(cache))
        code, text = run_cli(*argv)
        assert code == 2
        assert text.startswith(f"error: cannot use cache directory "
                               f"{str(cache)!r}: ")
        assert len(text.splitlines()) == 1
        assert blocker.read_text() == ""


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
    """The HTML observability report, written by ``run-file --report``."""

    def test_runs_document_and_writes_report(self, tmp_path):
        path = tmp_path / "exp.toml"
        path.write_text(DOCUMENT.format(ops=4))
        code, text = run_cli("run-file", str(path),
                             "--report", str(tmp_path / "obs"))
        assert code == 0
        assert "observability report ->" in text
        html = (tmp_path / "obs" / "report.html").read_text()
        assert "cli-doc" in html and "Sweep progress" in html

    def test_invalid_document_exits_2(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("schema = 1\nname = 'x'\nbogus = 3\n")
        code, text = run_cli("run-file", str(path),
                             "--report", str(tmp_path / "obs"))
        assert code == 2
        assert "unknown key" in text
        assert not (tmp_path / "obs").exists()


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


# [litmus] tables that must not load: each used to validate, then die
# with a traceback at run time.
BAD_LITMUS = [
    ({"protocol": "tokenring"}, "unknown protocol 'tokenring'"),
    ({"width": 1}, "width must be >= 2"),
    ({"height": 0}, "height must be >= 2"),
    ({"max_cycles": -5}, "max_cycles must be >= 0"),
    ({"programs": ["iriw"], "width": 1, "height": 2}, "width must be >= 2"),
]


class TestLitmusTableValidation:
    def _exits_2(self, tmp_path, table, match):
        import json
        path = tmp_path / "litmus.json"
        path.write_text(json.dumps({"schema": 1, "name": "bad",
                                    "litmus": table}))
        for verb in ("describe", "run-file"):
            code, text = run_cli(verb, str(path))
            assert code == 2, verb
            assert text.startswith("error:") and match in text, verb

    @pytest.mark.parametrize("table, match", BAD_LITMUS)
    def test_bad_table_exits_2(self, tmp_path, table, match):
        self._exits_2(tmp_path, table, match)

    def test_more_threads_than_nodes_exits_2(self, tmp_path, monkeypatch):
        import repro.verification.litmus as litmus
        wide = litmus.LitmusProgram(name="wide",
                                    threads=[[("R", "x")]] * 5)
        monkeypatch.setattr(litmus, "ALL_LITMUS", [*litmus.ALL_LITMUS, wide])
        self._exits_2(tmp_path, {"programs": ["wide"], "width": 2,
                                 "height": 2},
                      "'wide' has 5 threads, more than the 4 nodes")


class TestLitmusCommand:
    def test_parallel_cached_suite(self, tmp_path):
        cold_code, cold = run_cli("litmus", "--jobs", "2",
                                  "--cache-dir", str(tmp_path))
        warm_code, warm = run_cli("litmus", "--cache-dir", str(tmp_path))
        assert cold_code == warm_code == 0
        assert [row[2:6] for row in table_rows(cold)] \
            == [row[2:6] for row in table_rows(warm)]
        assert verdict_lines(cold) == verdict_lines(warm)
        assert len(verdict_lines(warm)) == 5
        assert all(line.endswith(" ok") for line in verdict_lines(warm))
        # the warm pass recalled every (program, seed) execution
        assert [row[6] for row in table_rows(warm)] == ["cache"] * 15
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
            self, monkeypatch):
        """``figure`` exits 2 for a mistyped id only; a KeyError raised
        by a registered figure's own reducer (a stat some builder
        stopped exporting) propagates, traceback and all."""
        from repro.analysis.figures import FIGURES, Figure, generate

        def reduce(results):
            return {}["system.reorder_buffer_peak"]

        monkeypatch.setitem(FIGURES, "broken",
                            Figure("broken", "a broken reducer", reduce))
        for call in (lambda: run_cli("figure", "broken"),
                     lambda: generate("broken")):
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


class TestTraceCommand:
    def test_trace_roundtrip(self, tmp_path, monkeypatch):
        from repro.cpu.tracefile import dump_traces
        from repro.workloads.suites import profile
        from repro.workloads.synthetic import generate_system_traces, scaled

        prof = scaled(profile("fft"), 0.02, 10.0)
        traces = generate_system_traces(prof, 9, 10, seed=1)
        monkeypatch.chdir(tmp_path)     # a path short enough for its column
        dump_traces(traces, "t.trace")
        code, text = run_cli("trace", "t.trace", "--mesh", "3x3",
                             "--protocol", "lpd")
        assert code == 0
        [row] = table_rows(text)
        assert row[:3] == ["lpd", "t.trace", "directory"]
        assert row[5] == "100.0%"

    def test_trace_bad_file(self, tmp_path):
        """A malformed trace file fails when the document loads, like an
        unreadable one: an ``error:`` line naming the file and the line,
        and exit 2."""
        path = tmp_path / "bad.trace"
        path.write_text("garbage line\n")
        code, text = run_cli("trace", str(path), "--mesh", "3x3")
        assert code == 2
        assert text == (f"error: experiment.runs[0]: {path}: line 1: "
                        f"expected '# scorpio-trace v1', got "
                        f"'garbage line'\n")

    def test_trace_with_more_cores_than_the_chip_exits_2(self, tmp_path,
                                                         monkeypatch):
        """The core count is checked when the document loads, where the
        chip is known: an ``error:`` line and exit 2 from ``trace`` and
        from ``run-file``, before any point runs."""
        from repro.cpu.trace import Trace, TraceOp
        from repro.cpu.tracefile import dump_traces
        path = tmp_path / "many.trace"
        dump_traces([Trace([TraceOp("R", 0x4000_0000, 1)])] * 12, path)
        document = tmp_path / "many.toml"
        document.write_text(
            'schema = 1\nname = "many"\n\n[configs.mesh3x3]\n'
            'preset = "variant"\nwidth = 3\nheight = 3\n\n[[runs]]\n'
            'builder = "scorpio"\nconfig = "mesh3x3"\n'
            f'workload = {{ kind = "trace", path = "{path}" }}\n')
        monkeypatch.setattr("repro.experiments.sweep.execute_point",
                            lambda *a, **k: pytest.fail("a point ran"))
        for argv, what in [(("trace", str(path), "--mesh", "3x3"),
                            "experiment.runs[0]"),
                           (("run-file", str(document)), "runs[0]")]:
            code, text = run_cli(*argv)
            assert code == 2
            assert text.startswith("error: ") and f"{what}: " in text
            assert text.endswith(f"{path}: file declares core 11 but "
                                 f"only 9 cores expected\n")

    def test_lone_write_node_outside_the_chip_exits_2(self, tmp_path,
                                                      monkeypatch):
        """A lone write's node is checked when the document loads, like
        a trace file's cores: an ``error:`` line and exit 2 from
        ``run-file``, before any point runs."""
        document = tmp_path / "lone.toml"
        document.write_text(
            'schema = 1\nname = "lone"\n\n[configs.mesh3x3]\n'
            'preset = "variant"\nwidth = 3\nheight = 3\n\n[[runs]]\n'
            'builder = "scorpio"\nconfig = "mesh3x3"\n'
            'workload = { kind = "lone_write", node = 20 }\n')
        monkeypatch.setattr("repro.experiments.sweep.execute_point",
                            lambda *a, **k: pytest.fail("a point ran"))
        code, text = run_cli("run-file", str(document))
        assert code == 2
        assert text.startswith("error: ")
        assert text.endswith("runs[0]: lone_write node 20 outside the "
                             "9-core system\n")

    def test_trace_missing_file_exits_2(self, tmp_path):
        code, text = run_cli("trace", str(tmp_path / "missing.trace"),
                             "--mesh", "3x3")
        assert code == 2
        assert text.startswith("error:") and "cannot read trace file" in text


FAST = ("--ops", "10", "--scale", "0.02", "--think-scale", "10")


def _fast_knobs():
    return dict(ops_per_core=10, workload_scale=0.02, think_scale=10.0,
                max_cycles=400_000)


def _full_knobs():
    from repro.analysis.figures import FULL
    return dict(ops_per_core=FULL.ops_per_core,
                workload_scale=FULL.workload_scale,
                think_scale=FULL.think_scale, max_cycles=400_000)


def _variant3():
    from repro.core import ChipConfig
    return ChipConfig.variant(3, 3)


def _chip36():
    from repro.core import ChipConfig
    return ChipConfig.chip_36core()


def _run_specs(trace):
    from repro.experiments import benchmark_spec
    return [benchmark_spec("fft", "ht", _variant3(), seed=2,
                           **_fast_knobs())]


def _run6_specs(trace):
    from repro.experiments import benchmark_spec
    return [benchmark_spec("barnes", "scorpio", _chip36(), seed=0,
                           **_full_knobs())]


def _sweep_specs(trace):
    from repro.experiments import benchmark_spec
    return [benchmark_spec(benchmark, protocol, _variant3(), seed=seed,
                           **_fast_knobs())
            for benchmark in ("fft", "lu") for protocol in ("lpd", "scorpio")
            for seed in (0, 1)]


def _sweep6_specs(trace):
    from repro.experiments import benchmark_spec
    return [benchmark_spec("barnes", protocol, _chip36(), **_full_knobs())
            for protocol in ("lpd", "ht", "scorpio")]


def _trace_specs(trace):
    from repro.core.api import builder_of
    from repro.experiments import SystemSpec
    builder, params = builder_of("lpd")
    return [SystemSpec(builder, _variant3(), params=params,
                       workload={"kind": "trace", "path": trace},
                       max_cycles=9_000)]


def _litmus_specs(trace):
    from repro.verification.litmus import ALL_LITMUS, litmus_spec
    return [litmus_spec(program, protocol="ht", seed=seed)
            for program in ALL_LITMUS for seed in (0, 1, 2)]


# verb arguments ("{trace}": a 3x3 trace file) -> the specs the verb
# built before it was a document (one benchmark_spec, the
# sweep's benchmark x protocol x seed grid of them, a builder
# SystemSpec over the trace file, the litmus suite's litmus_spec list).
VERBS = {
    "run-3x3": (("run", "fft", "--mesh", "3x3", *FAST, "--protocol", "ht",
                 "--seed", "2"), _run_specs),
    "run-6x6": (("run", "barnes"), _run6_specs),
    "sweep-3x3": (("sweep", "fft", "lu", "--mesh", "3x3", *FAST,
                   "--protocols", "lpd", "scorpio", "--seeds", "0", "1"),
                  _sweep_specs),
    "sweep-6x6": (("sweep", "barnes"), _sweep6_specs),
    "trace": (("trace", "{trace}", "--mesh", "3x3", "--protocol", "lpd",
               "--max-cycles", "9000"), _trace_specs),
    "litmus": (("litmus", "--protocol", "ht"), _litmus_specs),
}


@pytest.fixture
def trace_path(tmp_path, monkeypatch):
    """A 3x3 trace file, named relative to the test's working directory
    (so its row fits the table's benchmark column)."""
    from repro.cpu.tracefile import dump_traces
    from repro.workloads.suites import profile
    from repro.workloads.synthetic import generate_system_traces, scaled
    monkeypatch.chdir(tmp_path)
    traces = generate_system_traces(scaled(profile("fft"), 0.02, 10.0),
                                    9, 10, seed=1)
    dump_traces(traces, "t.trace")
    return "t.trace"


def verb_document(argv, trace):
    from repro import cli
    args = build_parser().parse_args(
        [arg.format(trace=trace) for arg in argv])
    to_document = {"run": cli.run_document, "sweep": cli.sweep_document,
                   "trace": cli.trace_document,
                   "litmus": cli.litmus_document}[args.command]
    return to_document(args)


class TestVerbDocuments:
    """``run``, ``sweep``, ``trace`` and ``litmus`` are documents run the
    way ``run-file`` runs one."""

    @pytest.mark.parametrize("case", sorted(VERBS))
    def test_document_fingerprints_equal_the_specs_the_verb_built(
            self, case, trace_path):
        from repro.api import experiment_from_dict
        argv, specs_of = VERBS[case]
        document = verb_document(argv, trace_path)
        built = experiment_from_dict(document).specs
        assert sorted(spec.fingerprint() for spec in built) \
            == sorted(spec.fingerprint() for spec in specs_of(trace_path))

    @pytest.mark.parametrize("case", ["run-3x3", "sweep-3x3", "trace",
                                      "litmus"])
    def test_stdout_is_run_file_of_the_document(self, case, trace_path):
        import json
        argv, _ = VERBS[case]
        with open("verb.json", "w") as handle:
            json.dump(verb_document(argv, trace_path), handle)
        code, text = run_cli(*(arg.format(trace=trace_path)
                               for arg in argv))
        file_code, file_text = run_cli("run-file", "verb.json")
        assert code == file_code == 0

        def body(text):
            return [line for line in text.splitlines()
                    if not line.startswith("experiment:")]
        assert table_rows(text)
        assert body(text) == body(file_text)
