"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``run`` — one benchmark under one protocol.
* ``sweep`` — a (benchmark × protocol × seed) matrix; ``--jobs N`` fans
  runs out across processes, ``--cache-dir`` recalls previously computed
  points; ``--list-builders`` prints the registered system builders
  that ``SystemSpec`` sweeps (and the figure harnesses) can target,
  with each builder's accepted params/defaults and the declarative
  workload kinds.
* ``trace`` — run an external trace file (the Graphite-traces flow).
* ``litmus`` — run the sequential-consistency litmus suite.
* ``run-file`` — execute an experiment document (TOML/JSON; see
  EXPERIMENTS.md and ``examples/experiments/``); ``--output`` writes the
  stable results envelope.  ``--checkpoint-every N`` snapshots every
  run's full system state on an N-cycle cadence (``--checkpoint-dir``
  chooses where) and ``--resume <ckpt>`` restores a preempted run from
  such a snapshot — results are byte-identical to an uninterrupted run.
  ``--report DIR`` re-executes each run with the event journal and mesh
  sampler attached (the envelope is untouched) and writes a
  self-contained observability report to ``DIR/report.html``.
* ``describe`` — validate an experiment document and print its fully
  resolved form (expanded configs, workloads, params) as JSON.
* ``figure`` — regenerate a paper table/figure (see ``--list``;
  ``table1`` is the chip feature summary, ``fig6a`` the protocol
  comparison normalised to LPD-D).
* ``bench`` — time the quiescence kernel on/off on fixed workloads and
  write ``BENCH_9.json`` (``--smoke`` for the tiny CI regime).
* ``serve`` — run the sweep-service frontend (HTTP job queue + shared
  result cache + optional spool directory; see docs/architecture.md,
  "The sweep service").
* ``submit`` — submit an experiment document to a running frontend;
  ``--wait`` streams progress and downloads the results envelope
  (byte-identical to ``run-file --output`` on the same document).
* ``jobs`` — list a frontend's jobs.

``run``, ``sweep``, ``trace`` and ``litmus`` each turn their arguments
into an experiment document and run it exactly as ``run-file`` runs a
file: one validation (a bad name is an ``error:`` line and exit 2), one
executor, one printer.  Every verb that simulates honours
``REPRO_JOBS`` and ``REPRO_CACHE_DIR``; ``--jobs``/``--cache-dir``,
where a verb has them, override the two.  This module is the only
reader of those variables (:func:`batch_options`): a library call runs
serially and uncached unless its own ``jobs`` / ``cache`` arguments say
otherwise.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.analysis.figures import FIGURES, FULL, QUICK, generate, lookup
from repro.core.api import PROTOCOLS


def batch_options(args=None) -> dict:
    """The ``jobs`` and ``cache`` a verb hands its batch: ``--jobs`` /
    ``--cache-dir`` where the verb has them and they are given, else
    ``REPRO_JOBS`` / ``REPRO_CACHE_DIR`` (unset: serial, uncached).  The
    one reader of those two variables; the library reads none."""
    option = vars(args).get if args is not None else {}.get
    jobs = option("jobs")
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS") or "1"
        try:
            jobs = int(raw)
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS must be an integer, got {raw!r}") from None
    from repro.experiments import as_cache
    return {"jobs": max(1, jobs),
            "cache": as_cache(option("cache_dir")
                              or os.environ.get("REPRO_CACHE_DIR") or None)}


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

    run_p = sub.add_parser("run", help="run one benchmark")
    run_p.add_argument("benchmark")
    run_p.add_argument("--protocol", choices=PROTOCOLS, default="scorpio")
    run_p.add_argument("--seed", type=int, default=0)
    add_regime_options(run_p)

    def add_executor_options(p):
        p.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: REPRO_JOBS or 1)")
        p.add_argument("--cache-dir", default=None,
                       help="result-cache directory (default: "
                            "REPRO_CACHE_DIR or caching off)")

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

def _configs(args) -> dict:
    """``--mesh`` as the document's one named chip, ``chip``."""
    width, height = args.mesh
    if (width, height) == (6, 6):
        return {"chip": {"preset": "chip_36core"}}
    return {"chip": {"preset": "variant", "width": width, "height": height}}


def _regime(args) -> dict:
    """The regime options as document knobs."""
    return dict(ops_per_core=args.ops, workload_scale=args.scale,
                think_scale=args.think_scale, max_cycles=args.max_cycles)


def _document(args, **work) -> dict:
    from repro.api import DOCUMENT_SCHEMA
    return {"schema": DOCUMENT_SCHEMA, "name": args.command, **work}


def run_document(args) -> dict:
    """``repro run``: one ``[[runs]]`` benchmark entry."""
    return _document(args, configs=_configs(args), runs=[dict(
        benchmark=args.benchmark, protocol=args.protocol, config="chip",
        seed=args.seed, **_regime(args))])


def sweep_document(args) -> dict:
    """``repro sweep``: a ``[matrix]``."""
    return _document(args, configs=_configs(args), matrix=dict(
        benchmarks=list(args.benchmarks), protocols=list(args.protocols),
        seeds=list(args.seeds), config="chip", **_regime(args)))


def trace_document(args) -> dict:
    """``repro trace``: one builder run over a ``trace`` workload,
    labelled with the protocol."""
    from repro.core.api import builder_of
    builder, params = builder_of(args.protocol)
    return _document(args, configs=_configs(args), runs=[dict(
        builder=builder, params=params, config="chip",
        workload={"kind": "trace", "path": args.path},
        label=args.protocol, max_cycles=args.max_cycles)])


def litmus_document(args) -> dict:
    """``repro litmus``: a ``[litmus]`` table, the whole suite."""
    return _document(args, litmus={"protocol": args.protocol})


def _simulating(to_document):
    """The command that runs the document *to_document* makes of its
    arguments, as ``run-file`` runs a file."""
    def command(args, out) -> int:
        from repro.api import experiment_from_dict
        return _simulate(lambda: experiment_from_dict(to_document(args)),
                         args, out)
    return command


def cmd_sweep(args, out) -> int:
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
    return _simulating(sweep_document)(args, out)


def cmd_run_file(args, out) -> int:
    from repro.api import load_experiment
    return _simulate(lambda: load_experiment(args.path), args, out)


def _simulate(load, args, out) -> int:
    """The one tail of every verb that simulates: *load* the experiment
    (a ``DocumentError`` is an ``error:`` line and exit 2), run it —
    through the checkpointed executor under ``--checkpoint-every`` /
    ``--resume`` — and print one row per run, the litmus verdicts and
    the cache line; then ``--output`` and ``--report``.  An option a verb
    does not have is off."""
    from repro.api import DocumentError, run_experiment
    option = vars(args).get
    try:
        experiment = load()
    except DocumentError as exc:
        print(f"error: {exc}", file=out)
        return 2
    cache = None
    if option("checkpoint_every") is not None or option("resume") is not None:
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
        batch = batch_options(args)
        cache = batch["cache"]
        outcome = run_experiment(experiment, **batch)
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
    if option("output"):
        from repro.api import envelope_bytes
        with open(args.output, "wb") as handle:
            handle.write(envelope_bytes(outcome.payload()))
        print(f"results -> {args.output}", file=out)
    if option("report") is not None:
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


def cmd_figure(args, out) -> int:
    if args.list or not args.id:
        print("available figures:", file=out)
        for fig_id, figure in sorted(FIGURES.items()):
            print(f"  {fig_id:<8} {figure.title}", file=out)
        return 0
    # An unknown id is checked before any work, so that a KeyError
    # raised later, inside a simulation or a reducer, stays a traceback
    # and not a usage error.
    try:
        lookup([args.id])
    except KeyError as exc:
        print(f"error: {exc}", file=out)
        return 2
    print(generate(args.id, FULL if args.full else QUICK, args.seed,
                   **batch_options(args)), file=out)
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


def cmd_serve(args, out) -> int:
    from repro.serve.server import serve
    cache = batch_options(args)["cache"]
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
    from repro.api import DocumentError
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
    except (DocumentError, ServeError) as exc:
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
    "run": _simulating(run_document),
    "sweep": cmd_sweep,
    "run-file": cmd_run_file,
    "describe": cmd_describe,
    "figure": cmd_figure,
    "trace": _simulating(trace_document),
    "bench": cmd_bench,
    "litmus": _simulating(litmus_document),
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
