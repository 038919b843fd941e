"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``run`` — one benchmark under one protocol, printing the run summary.
* ``compare`` — the same benchmark under several protocols, printing
  runtimes normalized to LPD-D (the Figure 6a view).
* ``sweep`` — a (benchmark × protocol × seed) matrix through the
  experiment orchestrator: ``--jobs N`` fans runs out across processes,
  ``--cache-dir`` recalls previously computed points;
  ``--list-builders`` prints the registered system builders that
  ``SystemSpec`` sweeps (and the figure harnesses) can target, with
  each builder's accepted params/defaults and the declarative workload
  kinds.
* ``run-file`` — execute an experiment document (TOML/JSON; see
  EXPERIMENTS.md and ``examples/experiments/``) through the same
  orchestrator; ``--output`` writes the stable results envelope.
  ``--checkpoint-every N`` snapshots every run's full system state on
  an N-cycle cadence (``--checkpoint-dir`` chooses where) and
  ``--resume <ckpt>`` restores a preempted run from such a snapshot —
  results are byte-identical to an uninterrupted run.
  ``--report DIR`` re-executes each run with the event journal and mesh
  sampler attached (the envelope is untouched) and writes a
  self-contained observability report to ``DIR/report.html``.
* ``report-html`` — run an experiment document and write only the
  observability HTML report (``run-file --report`` without the
  envelope bookkeeping).
* ``describe`` — validate an experiment document and print its fully
  resolved form (expanded configs, workloads, params) as JSON.
* ``figure`` — regenerate a paper table/figure (see ``--list``).
* ``report`` — render a set of figures into a results directory.
* ``trace`` — run an external trace file (the Graphite-traces flow).
* ``features`` — print the Table 1 chip feature summary.
* ``bench`` — time the quiescence kernel on/off on fixed workloads and
  write ``BENCH_9.json`` (``--smoke`` for the tiny CI regime).
* ``litmus`` — run the sequential-consistency litmus suite.
* ``serve`` — run the sweep-service frontend (HTTP job queue + shared
  result cache + optional spool directory; see docs/architecture.md,
  "The sweep service").
* ``submit`` — submit an experiment document to a running frontend;
  ``--wait`` streams progress and downloads the results envelope
  (byte-identical to ``run-file --output`` on the same document).
* ``jobs`` — list a frontend's jobs.

``sweep``, ``figure``, ``report`` and ``litmus`` honour ``REPRO_JOBS``
and ``REPRO_CACHE_DIR`` as defaults for ``--jobs``/``--cache-dir``;
``compare`` (routed through the same sweep runner) honours the
environment variables too.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.figures import FIGURES, FULL, QUICK, generate, lookup
from repro.core.api import (PROTOCOLS, compare_protocols,
                            normalized_runtimes, run_benchmark,
                            run_trace_file)
from repro.core.config import CHIP_FEATURES, ChipConfig


def _chip(args) -> ChipConfig:
    width, height = args.mesh
    if (width, height) == (6, 6):
        config = ChipConfig.chip_36core()
    else:
        config = ChipConfig.variant(width, height)
    return config


def _cache(args):
    """The ``--cache-dir`` cache, else the execution context's."""
    from repro.experiments import as_cache, get_context
    return as_cache(args.cache_dir) if args.cache_dir \
        else get_context().cache


def _mesh(text: str):
    try:
        width, height = (int(part) for part in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"mesh must look like '6x6', got {text!r}")
    if width < 2 or height < 2:
        raise argparse.ArgumentTypeError("mesh must be at least 2x2")
    return width, height


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SCORPIO (ISCA 2014) reproduction: ordered-mesh "
                    "snoopy coherence simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    full_help = (f"the regime the benchmark harness asserts "
                 f"({FULL.ops_per_core} ops/core, the 36- and 64-core "
                 f"legs; slow) instead of the quick one "
                 f"({QUICK.ops_per_core} ops/core, 4x4 meshes)")

    def add_regime_options(p):
        p.add_argument("--mesh", type=_mesh, default=(6, 6),
                       help="mesh dimensions, e.g. 6x6 (default)")
        p.add_argument("--ops", type=int, default=FULL.ops_per_core,
                       help="memory operations per core")
        p.add_argument("--scale", type=float, default=FULL.workload_scale,
                       help="workload footprint scale")
        p.add_argument("--think-scale", type=float,
                       default=FULL.think_scale,
                       help="think-time stretch factor")
        p.add_argument("--max-cycles", type=int, default=400_000)

    def add_run_options(p):
        p.add_argument("--protocol", choices=PROTOCOLS, default="scorpio")
        p.add_argument("--seed", type=int, default=0)
        add_regime_options(p)

    run_p = sub.add_parser("run", help="run one benchmark")
    run_p.add_argument("benchmark")
    add_run_options(run_p)

    def add_executor_options(p):
        p.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: REPRO_JOBS or 1)")
        p.add_argument("--cache-dir", default=None,
                       help="result-cache directory (default: "
                            "REPRO_CACHE_DIR or caching off)")

    cmp_p = sub.add_parser("compare", help="compare protocols")
    cmp_p.add_argument("benchmark")
    cmp_p.add_argument("--protocols", nargs="+", choices=PROTOCOLS,
                       default=["lpd", "ht", "scorpio"])
    add_run_options(cmp_p)

    sweep_p = sub.add_parser(
        "sweep", help="run a benchmark x protocol x seed matrix "
                      "(parallel, cached)")
    sweep_p.add_argument("benchmarks", nargs="*")
    sweep_p.add_argument("--protocols", nargs="+", choices=PROTOCOLS,
                         default=["lpd", "ht", "scorpio"])
    sweep_p.add_argument("--seeds", nargs="+", type=int, default=[0])
    sweep_p.add_argument("--list-builders", action="store_true",
                         help="list the registered system builders "
                              "(SystemSpec targets) and exit")
    add_regime_options(sweep_p)
    add_executor_options(sweep_p)

    run_file_p = sub.add_parser(
        "run-file", help="run an experiment document (TOML/JSON)")
    run_file_p.add_argument("path")
    run_file_p.add_argument("--output", default=None,
                            help="write the results envelope as JSON")
    run_file_p.add_argument("--checkpoint-every", type=int, default=None,
                            metavar="N",
                            help="snapshot each run's full system state "
                                 "every N cycles (serial, uncached; "
                                 "snapshots land in --checkpoint-dir)")
    run_file_p.add_argument("--checkpoint-dir", default=".",
                            help="directory for <fingerprint>.ckpt "
                                 "snapshots (default: .)")
    run_file_p.add_argument("--resume", default=None, metavar="CKPT",
                            help="resume the matching run from a "
                                 "snapshot written by --checkpoint-every "
                                 "(other runs execute fresh)")
    run_file_p.add_argument("--report", default=None, metavar="DIR",
                            help="after the document runs, re-execute "
                                 "each run with the event journal and "
                                 "mesh sampler attached and write a "
                                 "self-contained observability report "
                                 "(DIR/report.html); fails on any "
                                 "journal-on/off result drift")
    add_executor_options(run_file_p)

    report_html_p = sub.add_parser(
        "report-html", help="run an experiment document and write the "
                            "observability HTML report")
    report_html_p.add_argument("path")
    report_html_p.add_argument("--output", default="report",
                               metavar="DIR",
                               help="report directory (default: report/)")
    add_executor_options(report_html_p)

    describe_p = sub.add_parser(
        "describe", help="validate an experiment document and print the "
                         "resolved form")
    describe_p.add_argument("path")
    describe_p.add_argument("--fingerprints", action="store_true",
                            help="include each run's content fingerprint "
                                 "(hashes the simulator sources once)")

    fig_p = sub.add_parser("figure", help="regenerate a paper figure")
    fig_p.add_argument("id", nargs="?", help="figure id (e.g. fig6a)")
    fig_p.add_argument("--list", action="store_true",
                       help="list available figure ids")
    fig_p.add_argument("--full", action="store_true",
                       help=full_help)
    fig_p.add_argument("--seed", type=int, default=0)
    add_executor_options(fig_p)

    trace_p = sub.add_parser("trace", help="run a trace file")
    trace_p.add_argument("path")
    trace_p.add_argument("--protocol", choices=PROTOCOLS,
                         default="scorpio")
    trace_p.add_argument("--mesh", type=_mesh, default=(6, 6))
    trace_p.add_argument("--max-cycles", type=int, default=400_000)

    report_p = sub.add_parser("report",
                              help="render figures into a directory")
    report_p.add_argument("directory")
    report_p.add_argument("--figures", nargs="+", default=None,
                          help="figure ids (default: the static set)")
    report_p.add_argument("--full", action="store_true", help=full_help)
    report_p.add_argument("--seed", type=int, default=0)
    add_executor_options(report_p)

    sub.add_parser("features", help="print Table 1 chip features")

    bench_p = sub.add_parser(
        "bench", help="time the quiescence kernel on/off and write a "
                      "JSON report")
    bench_p.add_argument("--output", default="BENCH_9.json",
                         help="report path (default: BENCH_9.json)")
    bench_p.add_argument("--smoke", action="store_true",
                         help="tiny 3x3 workloads for CI: proves the "
                              "harness runs, numbers not meaningful")
    bench_p.add_argument("--repeats", type=int, default=1,
                         help="timing repeats per point (best-of)")
    bench_p.add_argument("--max-journal-overhead", type=float,
                         default=None, metavar="FRAC",
                         help="fail if a journal-on run is more than "
                              "FRAC slower than journal-off (e.g. 0.5 "
                              "= 50%%); off by default — wall-clock "
                              "thresholds need a quiet host")

    litmus_p = sub.add_parser("litmus", help="run the SC litmus suite")
    litmus_p.add_argument("--protocol", choices=PROTOCOLS,
                          default="scorpio")
    add_executor_options(litmus_p)

    serve_p = sub.add_parser(
        "serve", help="run the sweep-service frontend (HTTP job queue "
                      "over the shared result cache)")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8765,
                         help="listen port (0 picks a free one)")
    serve_p.add_argument("--cache-dir", default=None,
                         help="shared result-cache directory or the URL "
                              "of another frontend (default: "
                              "REPRO_CACHE_DIR; required)")
    serve_p.add_argument("--workers", type=int, default=2,
                         help="sweep-point worker processes (default: 2)")
    serve_p.add_argument("--retries", type=int, default=1,
                         help="per-point retries after a worker dies or "
                              "times out (default: 1)")
    serve_p.add_argument("--point-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="per-point wall-clock budget (default: "
                              "unbounded)")
    serve_p.add_argument("--spool", default=None, metavar="DIR",
                         help="also claim documents dropped into DIR "
                              "(shared across hosts: atomic-rename "
                              "claims, one winner per document)")
    serve_p.add_argument("--verbose", action="store_true",
                         help="log every HTTP request to stderr")

    def add_url_option(p):
        import os
        p.add_argument("--url",
                       default=os.environ.get("REPRO_SERVE_URL",
                                              "http://127.0.0.1:8765"),
                       help="frontend URL (default: REPRO_SERVE_URL or "
                            "http://127.0.0.1:8765)")

    submit_p = sub.add_parser(
        "submit", help="submit an experiment document to a running "
                       "frontend")
    submit_p.add_argument("path")
    add_url_option(submit_p)
    submit_p.add_argument("--wait", action="store_true",
                          help="stream progress until the job finishes "
                               "and report its cache stats")
    submit_p.add_argument("--output", default=None,
                          help="with --wait: write the results envelope "
                               "(byte-identical to run-file --output)")
    submit_p.add_argument("--timeout", type=float, default=None,
                          help="with --wait: give up after SECONDS")

    jobs_p = sub.add_parser("jobs", help="list a frontend's jobs")
    add_url_option(jobs_p)

    return parser


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def _print_result(result, out) -> None:
    print(f"benchmark : {result.benchmark}", file=out)
    print(f"protocol  : {result.protocol}", file=out)
    print(f"cores     : {result.n_cores}", file=out)
    print(f"runtime   : {result.runtime} cycles", file=out)
    print(f"ops done  : {result.completed_ops} "
          f"(progress {result.progress:.1%})", file=out)
    if result.avg_l2_service_latency:
        print(f"L2 service: {result.avg_l2_service_latency:.1f} cycles "
              f"(mean)", file=out)


def _regime(args) -> dict:
    """The regime options as benchmark knobs (``RunSpec``/``Sweep``
    keywords)."""
    return dict(ops_per_core=args.ops, workload_scale=args.scale,
                think_scale=args.think_scale, max_cycles=args.max_cycles)


def cmd_run(args, out) -> int:
    result = run_benchmark(args.benchmark, protocol=args.protocol,
                           config=_chip(args), seed=args.seed,
                           **_regime(args))
    _print_result(result, out)
    return 0 if result.progress == 1.0 else 1


def cmd_compare(args, out) -> int:
    results = compare_protocols(args.benchmark, tuple(args.protocols),
                                config=_chip(args), seed=args.seed,
                                **_regime(args))
    baseline = "lpd" if "lpd" in results else args.protocols[0]
    norm = normalized_runtimes(results, baseline=baseline)
    print(f"{args.benchmark}: runtime normalized to {baseline.upper()}",
          file=out)
    for protocol in args.protocols:
        result = results[protocol]
        print(f"  {protocol:<8} {norm[protocol]:.3f} "
              f"({result.runtime} cycles)", file=out)
    return 0


def cmd_sweep(args, out) -> int:
    from repro.experiments import Sweep, run_sweep
    if args.list_builders:
        from repro.experiments import list_builders, workload_kinds

        def render(params) -> str:
            if not params:
                return "(none)"
            return ", ".join(f"{key}={value!r}"
                             for key, value in sorted(params.items()))

        print("registered system builders (SystemSpec / document "
              "'builder' targets):", file=out)
        for name, description, defaults in list_builders():
            print(f"  {name:<12} {description}", file=out)
            print(f"  {'':<12} params: {render(defaults)}", file=out)
        print("declarative workload kinds (document 'workload' tables):",
              file=out)
        for kind, defaults in workload_kinds():
            print(f"  {kind:<12} {render(defaults)}", file=out)
        print("params marked <required> must be supplied; all others "
              "show their defaults.", file=out)
        return 0
    if not args.benchmarks:
        print("error: sweep needs at least one benchmark "
              "(or --list-builders)", file=out)
        return 2
    width, height = args.mesh
    sweep = Sweep(benchmarks=list(args.benchmarks),
                  protocols=tuple(args.protocols),
                  configs=_chip(args), seeds=tuple(args.seeds),
                  **_regime(args))
    cache = _cache(args)
    results = run_sweep(sweep, jobs=args.jobs, cache=cache)
    print(f"{len(results)} runs ({width}x{height} mesh, "
          f"{len(args.benchmarks)} benchmarks x "
          f"{len(args.protocols)} protocols x {len(args.seeds)} seeds)",
          file=out)
    header = f"{'benchmark':<16}{'protocol':<10}{'seed':>5}" \
             f"{'runtime':>10}  {'progress':>8}  source"
    print(header, file=out)
    print("-" * len(header), file=out)
    incomplete = 0
    for res in results:
        if res.progress < 1.0:
            incomplete += 1
        print(f"{res.benchmark:<16}{res.protocol:<10}{res.seed:>5}"
              f"{res.runtime:>10}  {res.progress:>8.1%}  "
              f"{'cache' if res.cached else 'run'}", file=out)
    if cache is not None:
        print(f"cache: {cache.hits} hits, {cache.misses} misses "
              f"({cache.backend.location})", file=out)
    return 0 if incomplete == 0 else 1


def cmd_run_file(args, out) -> int:
    from repro.api import DocumentError, load_experiment, run_experiment
    try:
        experiment = load_experiment(args.path)
    except DocumentError as exc:
        print(f"error: {exc}", file=out)
        return 2
    checkpointing = (args.checkpoint_every is not None
                     or args.resume is not None)
    cache = None
    if checkpointing:
        from repro.experiments.checkpoint_exec import \
            run_experiment_checkpointed
        try:
            outcome = run_experiment_checkpointed(
                experiment, checkpoint_every=args.checkpoint_every,
                checkpoint_dir=args.checkpoint_dir, resume=args.resume)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=out)
            return 2
        if args.checkpoint_every is not None:
            print(f"checkpoints: every {args.checkpoint_every} cycles "
                  f"-> {args.checkpoint_dir}", file=out)
    else:
        cache = _cache(args)
        outcome = run_experiment(experiment, jobs=args.jobs, cache=cache)
    print(f"experiment: {experiment.name} "
          f"({len(outcome.results)} runs)", file=out)
    failures = 0
    if outcome.results:
        header = f"{'label':<14}{'benchmark':<16}{'protocol':<10}" \
                 f"{'seed':>5}{'runtime':>10}  {'progress':>8}  source"
        print(header, file=out)
        print("-" * len(header), file=out)
        for res in outcome.results:
            if res.progress < 1.0:
                failures += 1
            print(f"{res.label:<14}{res.benchmark:<16}{res.protocol:<10}"
                  f"{res.seed:>5}{res.runtime:>10}  {res.progress:>8.1%}  "
                  f"{'cache' if res.cached else 'run'}", file=out)
    for name, passed in sorted(outcome.litmus_verdicts.items()):
        if not passed:
            failures += 1
        print(f"litmus {name:<24} "
              f"{'ok' if passed else 'FORBIDDEN OUTCOME OBSERVED'}",
              file=out)
    if cache is not None:
        stats = outcome.cache_stats
        print(f"cache: {stats['hits']} hits, {stats['misses']} misses "
              f"({cache.backend.location})", file=out)
    if args.output:
        from repro.api import envelope_bytes
        with open(args.output, "wb") as handle:
            handle.write(envelope_bytes(outcome.payload()))
        print(f"results -> {args.output}", file=out)
    if args.report is not None:
        from repro.analysis.report_html import (ObservabilityDriftError,
                                                write_html_report)
        try:
            path = write_html_report(args.report, experiment,
                                     outcome.results)
        except ObservabilityDriftError as exc:
            print(f"error: {exc}", file=out)
            return 2
        print(f"observability report -> {path}", file=out)
    return 0 if failures == 0 else 1


def cmd_report_html(args, out) -> int:
    from repro.analysis.report_html import (ObservabilityDriftError,
                                            write_html_report)
    from repro.api import DocumentError, load_experiment, run_experiment
    try:
        experiment = load_experiment(args.path)
    except DocumentError as exc:
        print(f"error: {exc}", file=out)
        return 2
    outcome = run_experiment(experiment, jobs=args.jobs, cache=_cache(args))
    try:
        path = write_html_report(args.output, experiment, outcome.results)
    except ObservabilityDriftError as exc:
        print(f"error: {exc}", file=out)
        return 2
    print(f"experiment: {experiment.name} "
          f"({len(outcome.results)} runs)", file=out)
    print(f"observability report -> {path}", file=out)
    return 0


def cmd_describe(args, out) -> int:
    from repro.api import DocumentError, describe_experiment
    try:
        print(describe_experiment(args.path,
                                  fingerprints=args.fingerprints),
              file=out)
    except DocumentError as exc:
        print(f"error: {exc}", file=out)
        return 2
    return 0


def _unknown_figures(ids, out) -> bool:
    """Report ids the registry does not know.  Checked before any work,
    so that a ``KeyError`` raised later, inside a simulation or a
    reducer, stays a traceback and not a usage error."""
    try:
        lookup(ids)
    except KeyError as exc:
        print(f"error: {exc}", file=out)
        return True
    return False


def cmd_figure(args, out) -> int:
    from repro.experiments import executing
    if args.list or not args.id:
        print("available figures:", file=out)
        for fig_id, figure in sorted(FIGURES.items()):
            print(f"  {fig_id:<8} {figure.title}", file=out)
        return 0
    if _unknown_figures([args.id], out):
        return 2
    with executing(jobs=args.jobs, cache=args.cache_dir):
        text = generate(args.id, FULL if args.full else QUICK, args.seed)
    print(text, file=out)
    return 0


def cmd_trace(args, out) -> int:
    result = run_trace_file(args.path, protocol=args.protocol,
                            config=_chip(args), max_cycles=args.max_cycles)
    _print_result(result, out)
    return 0 if result.progress == 1.0 else 1


def cmd_report(args, out) -> int:
    from repro.analysis.report import build_report
    if _unknown_figures(args.figures or (), out):
        return 2
    artifacts = build_report(args.directory, figures=args.figures,
                             regime=FULL if args.full else QUICK,
                             seed=args.seed, jobs=args.jobs,
                             cache_dir=args.cache_dir)
    for fig_id, path in sorted(artifacts.items()):
        print(f"  {fig_id:<10} -> {path}", file=out)
    return 0


def cmd_bench(args, out) -> int:
    from repro.experiments.bench import write_bench
    report = write_bench(args.output, smoke=args.smoke,
                         repeats=args.repeats,
                         max_journal_overhead=args.max_journal_overhead)
    mode = "smoke" if args.smoke else "full"
    print(f"quiescence kernel bench ({mode} regime, "
          f"{report['mesh']} mesh) -> {args.output}", file=out)
    header = f"{'workload':<20}{'cycles':>9}{'on (s)':>9}{'off (s)':>9}" \
             f"{'speedup':>9}{'journal':>9}"
    print(header, file=out)
    print("-" * len(header), file=out)
    for name, row in sorted(report["workloads"].items()):
        print(f"{name:<20}{row['cycles']:>9}"
              f"{row['wall_seconds_quiescence_on']:>9.2f}"
              f"{row['wall_seconds_quiescence_off']:>9.2f}"
              f"{row['speedup']:>8.2f}x"
              f"{row['journal_overhead']:>+9.1%}", file=out)
    return 0


def cmd_features(args, out) -> int:
    width = max(len(k) for k in CHIP_FEATURES)
    for key, value in CHIP_FEATURES.items():
        print(f"{key:<{width}}  {value}", file=out)
    return 0


def cmd_litmus(args, out) -> int:
    from repro.verification.litmus import run_suite
    results = run_suite(protocol=args.protocol, jobs=args.jobs,
                        cache=_cache(args))
    failures = 0
    for name, passed in sorted(results.items()):
        status = "ok" if passed else "FORBIDDEN OUTCOME OBSERVED"
        if not passed:
            failures += 1
        print(f"  {name:<24} {status}", file=out)
    print(f"{len(results) - failures}/{len(results)} litmus tests passed",
          file=out)
    return 0 if failures == 0 else 1


def cmd_serve(args, out) -> int:
    from repro.serve.server import serve
    cache = _cache(args)
    if cache is None:
        print("error: serve needs a shared cache (--cache-dir or "
              "REPRO_CACHE_DIR)", file=out)
        return 2
    server = serve(cache.backend, host=args.host, port=args.port,
                   workers=args.workers, retries=args.retries,
                   point_timeout=args.point_timeout, spool=args.spool,
                   quiet=not args.verbose)
    print(f"sweep service listening on {server.url}", file=out)
    print(f"cache: {server.service.backend.location}", file=out)
    if args.spool:
        print(f"spool: {args.spool}", file=out)
    if hasattr(out, "flush"):
        out.flush()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def cmd_submit(args, out) -> int:
    from repro.api.client import ServeClient, ServeError
    client = ServeClient(args.url)
    try:
        if not args.wait:
            summary = client.submit_path(args.path)
            cache = summary["cache"]
            print(f"{summary['job']}: {summary['experiment']} "
                  f"({summary['points']} points, {cache['hits']} hits, "
                  f"{summary['pending']} pending) -> {args.url}",
                  file=out)
            return 0

        def report(event) -> None:
            kind = event.get("event")
            if kind == "queued":
                print(f"{event['job']}: {event['points']} points, "
                      f"{event['hits']} hits, {event['pending']} "
                      f"to run", file=out)
            elif kind == "point":
                print(f"  point {event['fingerprint'][:12]} done",
                      file=out)
            elif kind == "retry":
                print(f"  point {event['fingerprint'][:12]} retrying: "
                      f"{event['error']}", file=out)
            elif kind == "point_failed":
                print(f"  point {event['fingerprint'][:12]} FAILED: "
                      f"{event['error']}", file=out)

        outcome = client.run(args.path, timeout=args.timeout,
                             on_event=report)
    except ServeError as exc:
        print(f"error: {exc}", file=out)
        return 1
    summary = outcome.summary
    cache = summary["cache"]
    print(f"{summary['job']} done: {summary['points']} points "
          f"(cache: {cache['hits']} hits, {cache['misses']} misses)",
          file=out)
    if args.output:
        with open(args.output, "wb") as handle:
            handle.write(outcome.envelope)
        print(f"results -> {args.output}", file=out)
    return 0


def cmd_jobs(args, out) -> int:
    from repro.api.client import ServeClient, ServeError
    try:
        jobs = ServeClient(args.url).jobs()
    except ServeError as exc:
        print(f"error: {exc}", file=out)
        return 1
    if not jobs:
        print(f"no jobs at {args.url}", file=out)
        return 0
    header = f"{'job':<10}{'experiment':<24}{'state':<9}" \
             f"{'points':>7}{'pending':>8}{'hits':>6}{'misses':>7}"
    print(header, file=out)
    print("-" * len(header), file=out)
    for job in jobs:
        cache = job["cache"]
        print(f"{job['job']:<10}{job['experiment']:<24}{job['state']:<9}"
              f"{job['points']:>7}{job['pending']:>8}"
              f"{cache['hits']:>6}{cache['misses']:>7}", file=out)
    return 0


COMMANDS = {
    "run": cmd_run,
    "compare": cmd_compare,
    "sweep": cmd_sweep,
    "run-file": cmd_run_file,
    "report-html": cmd_report_html,
    "describe": cmd_describe,
    "figure": cmd_figure,
    "report": cmd_report,
    "trace": cmd_trace,
    "features": cmd_features,
    "bench": cmd_bench,
    "litmus": cmd_litmus,
    "serve": cmd_serve,
    "submit": cmd_submit,
    "jobs": cmd_jobs,
}


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args, out)


if __name__ == "__main__":   # pragma: no cover
    sys.exit(main())
