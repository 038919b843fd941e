#!/usr/bin/env python3
"""The layered benchmark declared by ``BENCHMARK.json`` (see
``perf/README.md``).

One run of one workload — the form the benchmark contract drives::

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

prints, as its last line, one JSON object ``{"correct", "attempted",
"failed", "metrics"}``: every end-to-end metric with ``--trace 0``,
every per-layer metric with ``--trace 1``.

The whole suite — every workload in fresh child processes (each child is
exactly the single run above), round-robin over ``--repeats`` so that
host drift hits all workloads equally, then one traced pass::

    python3 perf/run.py [--repeats 3] [--only NAME,...] [--traced]
                        [--smoke] [--out perf/results/latest.json]

and the verdicts between two suite result files::

    python3 perf/run.py --compare A.json B.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

from perflib import compare as compare_module          # noqa: E402
from perflib import workloads as workloads_module      # noqa: E402

RESULT_SCHEMA = 1
# Fresh processes that only set up, besides the measuring process's own
# set-up: setup_s is the median of all of them.
SETUP_PROBES = 2


def load_declaration():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_expected(smoke: bool):
    with open(os.path.join(PERF_DIR, "expected.json"),
              encoding="utf-8") as fh:
        return json.load(fh)["smoke" if smoke else "full"]


# ---------------------------------------------------------------------------
# One run of one workload
# ---------------------------------------------------------------------------

def child_command(name: str, args, *extra: str):
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", name, "--seed", str(args.seed)]
    if args.smoke:
        command.append("--smoke")
    return command + list(extra)


def setup_probe(args) -> float:
    """Set the workload up in a fresh process; its set-up seconds."""
    done = subprocess.run(child_command(args.workload, args, "--setup-only"),
                          stdout=subprocess.PIPE, check=True, timeout=170)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def run_single(args) -> int:
    declaration = load_declaration()
    # Only the timed pass reports setup_s.
    probes = [] if args.setup_only or args.trace \
        else [setup_probe(args) for _ in range(SETUP_PROBES)]
    workload = workloads_module.make(args.workload, args.seed, args.smoke)
    start = time.perf_counter()
    try:
        workload.setup()
        own_setup = time.perf_counter() - start
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        outcome = workload.traced() if args.trace \
            else workload.timed(args.seconds)
    finally:
        workload.close()

    errors = list(outcome.errors)
    if args.seed == 0:
        # Seed 0 is pinned; any other seed can only be checked for
        # agreement between passes (above) and between runs (the suite).
        expected = load_expected(args.smoke)[args.workload]
        if outcome.digest != expected:
            outcome.failed = outcome.attempted
            errors.append(f"outcome digest {outcome.digest} is not the "
                          f"pinned {expected}")
    correct = outcome.failed == 0 and not errors

    if args.trace:
        metrics = {metric["name"]: {
            "value": float(outcome.layers.get(metric["name"], 0.0)),
            "unit": metric["unit"]} for metric in declaration["per_layer"]}
        undeclared = sorted(set(outcome.layers) - set(metrics))
        if undeclared:
            raise SystemExit(f"per-layer metrics not declared in "
                             f"BENCHMARK.json: {undeclared}")
        if outcome.spans:
            spans_dir = os.path.join(PERF_DIR, "results", "spans")
            os.makedirs(spans_dir, exist_ok=True)
            with open(os.path.join(
                    spans_dir, f"{args.workload}-seed{args.seed}.json"),
                    "w", encoding="utf-8") as fh:
                json.dump(outcome.spans, fh)
    else:
        values = dict(outcome.timings,
                      setup_s=statistics.median(probes + [own_setup]))
        metrics = {metric["name"]: {"value": values[metric["name"]],
                                    "unit": metric["unit"]}
                   for metric in declaration["end_to_end"]}

    detail = dict(outcome.detail, digest=outcome.digest, errors=errors,
                  setup_samples=probes + [own_setup])
    for error in errors:
        print(f"error: {args.workload}: {error}", file=sys.stderr)
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# The suite
# ---------------------------------------------------------------------------

def run_child(name: str, args, trace: int):
    """One single run in a fresh process -> its result row."""
    start = time.perf_counter()
    done = subprocess.run(
        child_command(name, args, "--seconds", str(args.seconds),
                      "--trace", str(trace)),
        stdout=subprocess.PIPE, timeout=600)
    elapsed = time.perf_counter() - start
    lines = done.stdout.decode("utf-8").splitlines()
    try:
        row = json.loads(lines[-1])
        row["detail"] = json.loads(lines[-2][len("detail "):])
    except (IndexError, ValueError):
        # The child died before it could report: one attempt, failed.
        row = {"correct": False, "attempted": 1, "failed": 1,
               "metrics": {}, "detail": {"digest": None, "errors": [
                   f"child exited {done.returncode} without a result"]}}
    row["exit_code"] = done.returncode
    row["wall_s"] = elapsed
    print(f"  {name:<18} trace={trace} {elapsed:6.1f}s "
          f"{'ok' if row['correct'] else 'FAILED'}", file=sys.stderr)
    return row


def host_header(args, declaration):
    return {
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": args.seed, "seconds": args.seconds,
        "repeats": args.repeats, "smoke": args.smoke,
        "command": declaration["command"],
        "model_validation": "shape-only, see benchmarks/",
        "modelled_caches": "start empty",
        "load": "one process generates all load; simulator workloads "
                "are single-threaded; sweep/serve use jobs=2 / workers=2 "
                "/ 2 closed-loop client threads",
    }


def run_suite(args) -> int:
    declaration = load_declaration()
    declared = [workload["name"] for workload in declaration["workloads"]]
    names = args.only.split(",") if args.only else declared
    unknown = sorted(set(names) - set(declared))
    if unknown:
        raise SystemExit(f"unknown workload(s) {unknown}; known: {declared}")
    header = host_header(args, declaration)
    rows = {name: {"runs": []} for name in names}
    if not args.traced:
        for repeat in range(args.repeats):
            print(f"repeat {repeat + 1}/{args.repeats}", file=sys.stderr)
            for name in names:
                rows[name]["runs"].append(run_child(name, args, trace=0))
    print("traced pass", file=sys.stderr)
    for name in names:
        rows[name]["traced"] = run_child(name, args, trace=1)
    header["loadavg_end"] = os.getloadavg()

    ok = True
    for name, row in rows.items():
        everything = row["runs"] + [row["traced"]]
        attempted = sum(run["attempted"] for run in everything)
        failed = sum(run["failed"] for run in everything)
        digests = {run["detail"]["digest"] for run in everything}
        row["failed_frac"] = failed / attempted
        row["digest"] = everything[0]["detail"]["digest"]
        row["digests_agree"] = len(digests) == 1
        row["end_to_end"] = {}
        for metric in declaration["end_to_end"]:
            values = [run["metrics"][metric["name"]]["value"]
                      for run in row["runs"] if run["metrics"]]
            if values:
                row["end_to_end"][metric["name"]] = {
                    "unit": metric["unit"], "n": len(values),
                    "median": statistics.median(values),
                    "min": min(values), "max": max(values),
                    "values": values}
        ok = ok and failed == 0 and row["digests_agree"] \
            and all(run["correct"] for run in everything)
    # sweep-cold and sweep-warm run the same document: same outcomes.
    if {"sweep-cold", "sweep-warm"} <= set(rows) \
            and rows["sweep-cold"]["digest"] != rows["sweep-warm"]["digest"]:
        ok = False
        print("error: sweep-cold and sweep-warm digests differ",
              file=sys.stderr)

    result = {"schema": RESULT_SCHEMA, "bench": "perf", "header": header,
              "workloads": rows, "ok": ok}
    out = args.out or os.path.join(PERF_DIR, "results", "latest.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print_suite(result, declaration)
    print(f"wrote {out}; {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def print_suite(result, declaration) -> None:
    header = result["header"]
    print(f"# perf: nproc={header['nproc']} "
          f"loadavg={header['loadavg_start'][0]:.2f}"
          f"->{header['loadavg_end'][0]:.2f} python={header['python']} "
          f"seed={header['seed']} seconds={header['seconds']} "
          f"repeats={header['repeats']} smoke={header['smoke']}")
    print(f"# model_validation: {header['model_validation']}; modelled "
          f"caches {header['modelled_caches']}")
    for name, row in result["workloads"].items():
        print(f"\n{name}  failed_frac={row['failed_frac']:g}  "
              f"digest={row['digest']}  "
              f"digests_agree={row['digests_agree']}")
        for key, cell in row["end_to_end"].items():
            print(f"  {key:<44} {cell['median']:>14.6g} {cell['unit']:<8}"
                  f" min {cell['min']:.6g} max {cell['max']:.6g} "
                  f"n={cell['n']}")
        for key, cell in row["traced"]["metrics"].items():
            if cell["value"]:
                print(f"  {key:<44} {cell['value']:>14.6g} {cell['unit']}")
        zero = [key for key, cell in row["traced"]["metrics"].items()
                if not cell["value"]]
        if zero:
            print(f"  zero on this workload: {' '.join(zero)}")


def run_compare(args) -> int:
    with open(args.compare[0], encoding="utf-8") as fh:
        base = json.load(fh)
    with open(args.compare[1], encoding="utf-8") as fh:
        new = json.load(fh)
    lines, ok = compare_module.compare(base, new, load_declaration())
    print(f"# base {args.compare[0]}  new {args.compare[1]}  "
          f"(ratio = new / base)")
    print("\n".join(lines))
    print("ok" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=workloads_module.WORKLOADS,
                        help="run this one workload once (contract form)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: proves the harness, not a "
                             "measurement")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--only", help="suite: comma-separated workloads")
    parser.add_argument("--traced", action="store_true",
                        help="suite: the traced pass only")
    parser.add_argument("--out", help="suite: result file "
                                      "(default perf/results/latest.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return run_compare(args)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        # The benchmark alone, without the program it measures.
        print(f"error: no src/repro package under {ROOT}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = 0.5 if args.smoke \
            else float(load_declaration()["run_seconds"])
    if args.workload:
        return run_single(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
