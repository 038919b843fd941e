"""Door census: which functions under src/repro does no door reach?

Installs a profile hook on every thread *before* importing ``repro`` (so
module-level registration counts), drives every door of the simulator in
this process with ``REPRO_JOBS=1``, and lists each function defined under
``src/repro`` (every ``def``, methods and nested ones included) whose code
never ran, as ``module:qualname``.

The doors: every quick figure; the example documents under
``examples/experiments``; ``run-file`` with checkpoint, resume, report
and output; ``run``, ``sweep`` (serial, ``--jobs 2`` and
``--list-builders``), ``trace``, ``litmus``, ``describe`` and
``bench --smoke``; ``serve`` with ``submit --wait``, ``jobs`` and a
cold then a warm ``sweep`` whose ``--cache-dir`` is the frontend's URL.
The example scripts are not doors.  A forked worker (``SlotPool``)
inherits the hook and writes what it reached to a file when it exits, so
functions that run only in a worker count.

    PYTHONPATH=src python .github/census.py           # check
    PYTHONPATH=src python .github/census.py --write   # rewrite the list

Check mode exits non-zero when a function that is not named in
``.github/census.txt`` is unreached; listed functions that a door now
reaches are printed, so the list can be shortened with ``--write``.
One pass takes about ten minutes on two cores.
"""

from __future__ import annotations

import os
import sys
import threading

_reached = set()
_add = _reached.add


def _profile(frame, event, arg):
    if event == "call":
        _add(frame.f_code)


sys.setprofile(_profile)
threading.setprofile(_profile)

import argparse  # noqa: E402
import ast  # noqa: E402
import contextlib  # noqa: E402
import glob  # noqa: E402
import io  # noqa: E402
import socket  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import _thread  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
LIST = ROOT / ".github" / "census.txt"
HEADER = """\
# Functions under src/repro that no door reaches, as module:qualname.
# Written by `PYTHONPATH=src python .github/census.py --write`; CI runs
# the script without --write and fails when a function not named here is
# unreached.  Functions that run only in a forked SlotPool worker
# (procpool._slot_main) count as reached: the worker writes its own
# census when it exits.
"""

# Forked workers dump what they reached here; the parent merges it.
_CHILD_DIR = ""


def _key(code):
    return (os.path.realpath(code.co_filename), code.co_firstlineno,
            code.co_name)


def _dump_worker():
    path = os.path.join(_CHILD_DIR, f"{os.getpid()}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        for filename, line, name in map(_key, list(_reached)):
            handle.write(f"{filename}\t{line}\t{name}\n")


def _install_worker_hook():
    """Make every forked worker dump what it reached when it exits
    (multiprocessing clears finalizers in a new worker, then runs the
    after-fork hooks, which are keyed on a weak reference)."""
    from multiprocessing import util
    util.register_after_fork(
        _dump_worker, lambda dump: util.Finalize(None, dump, exitpriority=0))


def defined_functions():
    """``{(file, first line, name): "module:qualname"}`` of every def
    under src/repro; the first line is the first decorator's, as in the
    code object."""
    found = {}
    for path in sorted((SOURCE / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(SOURCE).with_suffix("").parts)
        if module.endswith(".__init__"):
            module = module[:-len(".__init__")]
        filename = os.path.realpath(path)

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    first = min([child.lineno] + [dec.lineno for dec
                                                  in child.decorator_list])
                    found[(filename, first, child.name)] = \
                        f"{module}:{qualname}"
                    visit(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


TRACE = """\
# scorpio-trace v1
# cores: 4
core 0
R 0x40000000 3
W 0x40000020 1
A 0x50000000 10
core 1
R 0x40000000 2
W 0x40000000 5
core 2
R 0x40000040 1
core 3
"""


def drive_doors(work: Path, log) -> list:
    """Every door, through the CLI's ``main`` in this process; returns
    the command lines that did not exit 0."""
    from repro.analysis.figures import FIGURES
    from repro.cli import main
    failed = []

    def door(*argv):
        started = time.time()
        code = main(list(argv), out=log)
        if code != 0:
            failed.append(" ".join(argv))
        print(f"  {' '.join(argv)[:70]:<70} exit {code} "
              f"({time.time() - started:.0f} s)", file=sys.stderr,
              flush=True)

    smoke = str(ROOT / "examples" / "experiments" / "fig7_smoke.toml")
    cache = str(work / "cache")
    for fig_id in sorted(FIGURES):
        door("figure", fig_id, "--cache-dir", cache)
    door("figure", "--list")
    for path in sorted(glob.glob(str(ROOT / "examples" / "experiments"
                                     / "*.toml"))):
        door("run-file", path)
        door("describe", path, "--fingerprints")
    checkpoints = work / "checkpoints"
    door("run-file", smoke, "--checkpoint-every", "200",
         "--checkpoint-dir", str(checkpoints),
         "--output", str(work / "smoke.json"))
    for snapshot in sorted(checkpoints.glob("*.ckpt"))[:1]:
        door("run-file", smoke, "--resume", str(snapshot))
    door("run-file", smoke, "--report", str(work / "report-run"))
    regime = ["--mesh", "3x3", "--ops", "10", "--scale", "0.02",
              "--think-scale", "10"]
    door("run", "fft", *regime)
    for _ in range(2):      # a cold, then a warm cache
        door("sweep", "fft", *regime, "--protocols", "lpd", "scorpio",
             "--cache-dir", cache)
    door("sweep", "lu", *regime, "--protocols", "ht", "scorpio",
         "--jobs", "2")
    door("sweep", "--list-builders")
    trace = work / "tiny.trace"
    trace.write_text(TRACE, encoding="ascii")
    door("trace", str(trace), "--mesh", "2x2")
    door("litmus")
    door("bench", "--smoke", "--output", str(work / "bench.json"))
    serve_door(work, door, smoke, regime)
    return failed


def serve_door(work: Path, door, document: str, regime: list) -> None:
    """``serve`` in this thread until ``submit --wait``, ``jobs`` and a
    cold then a warm ``sweep`` against the frontend's cache URL have run
    from another; then the interrupt the CLI stops on."""
    port = str(_free_port())
    url = f"http://127.0.0.1:{port}"

    def clients():
        from repro.api.client import ServeClient
        try:
            for _ in range(200):
                try:
                    ServeClient(url).health()
                    break
                except Exception:
                    time.sleep(0.1)
            door("submit", document, "--url", url, "--wait",
                 "--output", str(work / "served.json"))
            door("submit", document, "--url", url)
            door("jobs", "--url", url)
            for _ in range(2):      # a cold, then a warm remote cache
                door("sweep", "fft", *regime, "--cache-dir", url)
        finally:
            _thread.interrupt_main()

    threading.Thread(target=clients, daemon=True).start()
    door("serve", "--port", port, "--cache-dir", str(work / "serve-cache"),
         "--workers", "2")


def reached_keys():
    keys = set(map(_key, list(_reached)))
    for dump in glob.glob(os.path.join(_CHILD_DIR, "*.txt")):
        with open(dump, encoding="utf-8") as handle:
            for line in handle:
                filename, first, name = line.rstrip("\n").split("\t")
                keys.add((filename, int(first), name))
    return keys


def read_list(path: Path):
    return {line.strip() for line in path.read_text(encoding="utf-8")
            .splitlines() if line.strip() and not line.startswith("#")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite .github/census.txt")
    args = parser.parse_args()
    os.environ["REPRO_JOBS"] = "1"
    os.environ.pop("REPRO_CACHE_DIR", None)
    global _CHILD_DIR
    _install_worker_hook()
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        _CHILD_DIR = os.path.join(tmp, "workers")
        os.mkdir(_CHILD_DIR)
        with open(os.devnull, "w") as log, contextlib.redirect_stdout(log):
            failed = drive_doors(Path(tmp), io.StringIO())
        sys.setprofile(None)
        threading.setprofile(None)
        reached = reached_keys()
    if failed:
        print("census: these doors failed:\n  " + "\n  ".join(failed))
        return 1
    defined = defined_functions()
    unreached = sorted(name for key, name in defined.items()
                       if key not in reached)
    print(f"census: {len(defined) - len(unreached)} of {len(defined)} "
          f"functions reached, {len(unreached)} not")
    if args.write:
        LIST.write_text(HEADER + "".join(f"{name}\n" for name in unreached),
                        encoding="utf-8")
        print(f"wrote {LIST}")
        return 0
    allowed = read_list(LIST)
    new = [name for name in unreached if name not in allowed]
    stale = sorted(allowed - set(unreached))
    for name in stale:
        print(f"now reached (drop it with --write): {name}")
    for name in new:
        print(f"UNREACHED: {name}")
    if new:
        print(f"census: {len(new)} function(s) no door reaches; reach "
              "them from a door or delete them")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
