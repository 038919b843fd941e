#!/usr/bin/env bash
# Regression greps, one block per simplicity PR: each thing that PR made
# single must stay single.  Run from the repository root; prints every
# offending line and exits non-zero if any rule fails.
set -u
status=0

fail() { echo "FAIL: $1"; status=1; }

# forbid <what> <grep -E pattern> <paths...>: the pattern occurs nowhere.
forbid() {
    local what=$1 pattern=$2; shift 2
    if grep -rnIE --exclude-dir=__pycache__ "$pattern" "$@"; then
        fail "$what"
    fi
}

# only_in <what> <pattern> <allowed files, one per line>: the files under
# src/repro in which the pattern occurs are exactly the allowed ones.
only_in() {
    local found
    found=$(grep -rlE --include='*.py' "$2" src/repro | sort)
    if [ "$found" != "$(echo "$3" | sort)" ]; then
        fail "$1 (found in: $(echo $found))"
    fi
}

# PR 16 - one pipeline: execute_point and plan_points never ask what
# kind of spec they hold; an isinstance(spec, SystemSpec) branch under
# src/repro is a second execution path (there is one point type).
forbid "spec-kind ladder" \
    'isinstance\([a-z_]+, \(?SystemSpec' src/repro

# Retired names: what each simplicity change deleted stays deleted, in
# the library, its tests, the harness and the examples.  One line per
# change, oldest first, named by the block below that it belongs to.
retired=(
    'stats_holder|ring_holder|nic_factory'     # one system assembly
    'ordering_enabled|_tagged_credit_returns|_mesh_credits|_inject_credits'
                                               # one NIC family
    'to_run_result|sweep_compare|build_benchmark_system'   # one result row
    'fig7_specs|sec2_specs|incf_specs|locks_specs|_quick_chip|quick: bool'
                                               # one figure, one definition
    '_delayed'                                 # one coherence endpoint
    '_adjacency|_candidates|_window_active|inject_source|_OracleQuery|NicRvcOracle|set_rvc_oracle|rvc_never|_lookup_rvc|rvc_ok|bench_report|_resolve_bench|_BENCH_KEYS'
                                               # rent audit
    'CreditTracker|SidTracker|sid_tracker|_consume_credit|_select_downstream_vc|_rvc_fns|_sid_counts|INJECT_TO_ROUTER_DELAY'
                                               # one sending end of a link
    'InputPort|vc_free|_release_upstream'      # one receiving end of a link
    'AsyncServeClient'                         # live config
    'system_kwargs|_build_(scorpio|directory|multimesh|tokenb|inso|timestamp|uncorq)|_timestamp_metrics|_uncorq_metrics'
                                               # one chip config
    'RunSpec|PointSpec|run_grid|compare_protocols'  # one point type
    'NotificationRouter'                       # one OR per window
    'VCBuffer|_slot_vc|deliver_lookahead|_tracker_expansion|_consumed_counts'
                                               # flat slots, one call a hop
    'peek_esid|_now'                           # one published ESID
    'run_benchmark|run_trace_file|run_litmus|compare_systems|add_watcher|_watchers|_stop_requested|REPRO_QUIESCENCE'
                                               # one way to drive a run
    'StatsFrame|statsframe|DEFAULT_SAMPLE_CAP|percentile'
                                               # a statistic is what the payload reads
    'DramConfig|DramModel|__serialize_nested__|LineInterleavedHomeMap|make_memory_map|owns_every_addr|get_meta|served_fraction|format_stack|lock_handoff_latency'
                                               # one memory model
    'ExecutionContext|build_report|DEFAULT_FIGURES|on_own_request_ordered|cmd_report|cached_figures'
                                               # how a batch runs is an argument
)
forbid "retired name" "\b($(IFS='|'; echo "${retired[*]}"))\b" \
    src tests benchmarks examples
# (A call, so outside the word-bounded list: "outstanding" is prose.)
forbid "retired name" '\boutstanding\(' src tests benchmarks examples

# How a batch runs is an argument: run_sweep / run_plan / run_experiment
# / render are serial and uncached unless their jobs / cache arguments
# say otherwise.  The CLI is the one reader of the environment (it maps
# REPRO_JOBS / REPRO_CACHE_DIR onto those arguments); the process-wide
# context and its override are gone, and so is the matrix class (a
# [matrix] table expands itself).  Bare "executing" / "Sweep" are prose
# ("Sweep progress", SweepResult), so those two match as code only.
only_in "environment read outside cli.py" 'os\.environ|getenv' \
    "src/repro/cli.py"
forbid "retired execution context" \
    '(^|[^.[:alnum:]_])get_context\b|\bexecuting(\(|,|\)|$)|import +executing\b' \
    src tests benchmarks examples
forbid "retired matrix class" \
    '\bSweep(\(|,|\)|\.|$)|import +Sweep\b' src tests benchmarks examples

# PR 18 - one system assembly: BaseSystem is the only place a system is
# put together (NICs come from make_nic overrides), and the snoopy L2
# loop lives in systems/base.py.
found=$(grep -rnE --include='*.py' '(^|[^A-Za-z])L2Controller\(' src/repro \
        | grep -v 'class ' | cut -d: -f1 | sort -u)
[ "$found" = src/repro/systems/base.py ] \
    || fail "second snoopy stack (L2Controller built in: $found)"

# PR 20 - one result row, one benchmark run body: RunResult (core/api.py)
# is the only result-row class (SweepResult is an assignment).
[ "$(grep -rhE '^class (RunResult|SweepResult)\b' src/repro | wc -l)" -eq 1 ] \
    || fail "more than one result-row class"

# PR 21 - one figure, one definition: the regimes are records in
# analysis/figures.py; nothing else spells regime numbers, re-assigns or
# patches QUICK, or grows a second sweep loop / table printer.
forbid "regime literal outside the registry" \
    'ops_per_core=[0-9.]+, *workload_scale=[0-9.]|"--(ops|scale|think-scale)".*default=[0-9]' \
    benchmarks src/repro/cli.py
forbid "second sweep loop / printer in the harness" \
    'def _(sweep|print)' benchmarks
only_in "QUICK assigned outside the registry" \
    '^\s*QUICK\w*\s*=' "src/repro/analysis/figures.py"
forbid "QUICK patched instead of passing a regime" \
    'setattr\([^)]*"QUICK"' src tests benchmarks

# PR 22 - one coherence endpoint: timed callbacks live in an EventWheel
# (no list-comprehension partition); the directory L2 overrides seams,
# not step / _issue; a line leaves the array through
# L2Controller._drop_line and meets the MOSI table in _snoop_array alone;
# data-bearing responses are built by CoherenceRequest.reply.
forbid "flat timed-callback list" \
    'for \w+ in self\._\w+ if \w+\[0\] (<=|>) ?cycle' src/repro
forbid "directory L2 copy of step / _issue" \
    'def (step|_issue)\(' src/repro/coherence/dir_l2.py
only_in "line drop outside L2Controller._drop_line" \
    'region_tracker\.line_evicted' "src/repro/coherence/l2_controller.py"
only_in "second MOSI snoop apply" 'on_remote_request\(' \
    "src/repro/coherence/l2_controller.py
src/repro/coherence/mosi.py"
only_in "hand-built CoherenceResponse" 'CoherenceResponse\(' \
    "src/repro/coherence/messages.py"

# PR 23 - rent audit: what was measured and did not pay, or was dead,
# stays deleted (the notification change frontier, the reserved-VC
# oracle route, the [bench] document table are retired names above).
# No lookahead is delivered through LOCAL.
forbid "VCBuffer.granted_vcs" 'granted_vcs' src/repro/noc/vc.py
# Measured and not paying (docs/architecture.md, "What each optimisation
# buys"): the NIC's None-valued hooks.
forbid "None-valued NIC hook" '_(pick_lane|request_injected) = None' src/repro
only_in "lookahead sink outside the router" 'def deliver_hop\(' \
    "src/repro/noc/router.py"

# PR 24 - one sending end of a link: credits, the SID table, VC
# selection and the lookahead + flit hand-off live in noc/vc.py's
# OutPort; the router's outports, the NIC's lanes and the mesh tester
# build one each and nobody else spells any of it (one deliver_hop
# call).
only_in "lookahead sent outside OutPort.send" '\.deliver_hop\(' \
    "src/repro/noc/vc.py"
# The reserved VC admits only the request the far NIC expects: a router
# reads that one SID's waiters, never asks about every parked SID.
forbid "reserved-VC waiters asked SID by SID" \
    'list\([^)]*rvc_wait|for .* in .*rvc_wait' src/repro/noc/router.py
only_in "OutPort built outside router/tester/NIC" \
    '(^|[^A-Za-z])OutPort\(' \
    "src/repro/nic/controller.py
src/repro/noc/router.py
src/repro/noc/tester.py"

# One published ESID: the tracker decodes a vector when the order moves
# (a push or a consume), so reading the order never moves it.  The
# ordered NIC's _note_order_progress is the one caller of current_esid
# and the one writer of esid; every other reader reads esid.
only_in "ESID asked outside the tracker and the NIC" 'current_esid\(' \
    "src/repro/notification/tracker.py
src/repro/nic/controller.py"
[ "$(grep -c 'current_esid(' src/repro/nic/controller.py)" -eq 1 ] \
    || fail "more than one current_esid call in the NIC"
found=$(grep -rnE --include='*.py' '\.esid *(:[^=]*)?=[^=]' src/repro)
[ "$(echo "$found" | grep -c .)" -eq 1 ] \
    && [ "${found%%:*}" = src/repro/nic/controller.py ] \
    || fail "esid written in more than one place: $found"

# One pipeline and one run loop:
# BaseSystem.run_until_done is the loop body execute_point runs (once,
# or once per checkpoint slice) and the only place under src/repro that
# hands Engine.run an until predicate; no test re-states that loop over
# a system; examples and benchmarks build no system class and run none
# themselves; the second figure-data type, the second litmus runner and
# the second report door stay deleted.
only_in "until predicate outside run_until_done" 'until=' \
    "src/repro/systems/base.py"
[ "$(grep -c 'until=' src/repro/systems/base.py)" -eq 1 ] \
    || fail "more than one until predicate in systems/base.py"
only_in "run_until_done called outside execute_point" 'run_until_done\(' \
    "src/repro/systems/base.py
src/repro/experiments/sweep.py"
forbid "second way to advance a system" 'def run\(' \
    src/repro/systems src/repro/ordering_baselines/systems.py
forbid "run loop over a system re-stated in a test" \
    'until=[^)]*all_cores_finished' tests
forbid "hand-run system in examples / benchmarks" \
    'run_until_done\(|(Scorpio|Directory|MultiMeshScorpio|Inso|TokenB|Timestamp|Uncorq)System\(' \
    examples benchmarks
forbid "second figure-data type / litmus runner / report door" \
    'FigureData|read_figure_csv|normalized_series|export_stats|run_litmus_detailed|cmd_report_html' \
    src tests benchmarks examples docs README.md EXPERIMENTS.md

# One receiving end of a link: a port's VC layout is NocConfig's
# (nothing else reads uoresp_vc_depth), credits go home through
# OutPort.return_credits (the multi-mesh tap only tags the lane), and the
# bypass grant takes nothing it may have to undo.
only_in "VC depth re-derived outside NocConfig" \
    '\.uoresp_vc_depth([^"A-Za-z0-9_]|$)' "src/repro/noc/config.py"
only_in "credit return outside OutPort.return_credits" \
    '\.queue_credit_release\(' "src/repro/noc/vc.py
src/repro/noc/multimesh.py"
python3 - <<'PY' || fail "bypass grant with an undo path"
import ast, sys
path = "src/repro/noc/router.py"
[grant] = [node for node in ast.walk(ast.parse(open(path).read()))
           if isinstance(node, ast.FunctionDef)
           and node.name == "_grant_bypass"]
undo = [f"{path}:{node.lineno}" for node in ast.walk(grant)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("_release_credit", "give_back")]
print("\n".join(undo), end="\n" if undo else "")
sys.exit(1 if undo else 0)
PY

# Live config: every ChipConfig field changes the run
# (tests/test_config_liveness.py) and the line size is spelled once.  The
# engine draws no random numbers; the dead NoC fields and the banked
# memory model's fields stay gone as identifiers (Table 1 keeps the NoC
# labels as strings, the removed-key test spells every one as a dotted
# key); no component or helper defaults a line size; stats are never
# merged.
forbid "engine RNG" '\.random\b' src/repro/sim
forbid "engine seeded" 'Engine\(seed' src tests benchmarks examples
only_in "line size field or default outside NocConfig" \
    'line_size\w*\s*(:[^=,)]*)?=\s*[0-9]' "src/repro/noc/config.py"
forbid "stats merge" 'def merge\b' src/repro/sim/stats.py
python3 - <<'PY' || fail "retired config field spelled as code"
import ast, sys
from pathlib import Path
retired = {"router_pipeline_stages", "link_stages", "multicast", "banked",
           "dram_config"}
hits = []
for root in ("src", "tests", "benchmarks", "examples"):
    for path in sorted(Path(root).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (getattr(node, "attr", None) or getattr(node, "id", None)
                    or getattr(node, "arg", None))
            if name in retired:
                hits.append(f"{path}:{node.lineno}: {name}")
print("\n".join(hits), end="\n" if hits else "")
sys.exit(1 if hits else 0)
PY

# One chip, one config: a system class is built as Class(config, traces,
# own params) from one ChipConfig, never from its parts (nor through a
# catch-all *args / **kwargs), and a builder
# registers the class itself (retired names above).  The memory-
# controller layout is defined in core/config.py alone, and the
# fabricated chip is ChipConfig's defaults, with no overrides.
python3 - <<'PY' || fail "system constructor takes chip parts, not config"
import ast, sys
from pathlib import Path
parts = {"noc", "notification", "cache", "memory", "core", "mc_nodes",
         "directory"}
paths = sorted(Path("src/repro/systems").glob("*.py"))
paths.append(Path("src/repro/ordering_baselines/systems.py"))
bad = []
for path in paths:
    for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not (isinstance(cls, ast.ClassDef) and cls.name.endswith("System")):
            continue
        for init in cls.body:
            if isinstance(init, ast.FunctionDef) and init.name == "__init__":
                args = init.args
                names = [a.arg for a in args.posonlyargs + args.args
                         + args.kwonlyargs]
                if names[1:2] != ["config"] or parts & set(names) \
                        or args.vararg or args.kwarg:
                    bad.append(f"{path}:{init.lineno}: {cls.name}"
                               f"({', '.join(names[1:])})")
print("\n".join(bad), end="\n" if bad else "")
sys.exit(1 if bad else 0)
PY
only_in "memory-controller layout outside core/config.py" \
    'default_mc_nodes' "src/repro/core/config.py"
forbid "chip_36core called with overrides" '\.chip_36core\([^)]' \
    src tests benchmarks examples

# A worker slot forks once: the pool's slots are the one place a
# process is started, so every worker inherits the orphan rule (it
# closes the parent's pipe ends and exits when the parent is gone).
only_in "one place starts a process" 'multiprocessing\.Process\(' \
    src/repro/experiments/procpool.py

# Every simulating verb is a document: run, sweep, trace and litmus
# build one and end in run-file's tail (one run_experiment call, one
# printer); compare and features are gone, and the per-verb runners and
# the second litmus judging loop stay deleted.  The library's run
# wrappers are retired names above, so the CLI can only reach a run
# through a document: no sweep, plan or point call of its own.
forbid "retired verb / runner / printer" \
    '\b(cmd_compare|cmd_features|cmd_trace|cmd_litmus|_print_result|run_suite)\b' \
    src tests benchmarks examples
forbid "per-verb runner in the CLI" \
    '\b(run_sweep|run_plan|execute_point|execute_system_spec)\b' \
    src/repro/cli.py
[ "$(grep -c 'run_experiment(' src/repro/cli.py)" -eq 1 ] \
    || fail "more than one run_experiment call in cli.py"

# Dead names: every def / class under src/repro is spelled at least
# twice across the tree (its definition plus one caller, test or
# document).  Allow-listed: http.server's do_* handlers (called by
# name from the request line) and @register_* functions (reached
# through their registry).
python3 - <<'PY' || fail "def/class names spelled once (dead code?)"
import ast, re, sys
from collections import Counter
from pathlib import Path

defined = {}
for path in sorted(Path("src/repro").rglob("*.py")):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        registered = any(
            isinstance(dec, ast.Call) and isinstance(dec.func, ast.Name)
            and dec.func.id.startswith("register_")
            for dec in node.decorator_list)
        if not (registered or re.fullmatch(r"do_[A-Z]+|__\w+__", node.name)):
            defined.setdefault(node.name, f"{path}:{node.lineno}")
spelled = Counter()
for root in "src tests benchmarks examples perf docs .github".split():
    for path in Path(root).rglob("*"):
        if path.is_file() and "__pycache__" not in path.parts:
            try:
                text = path.read_text(encoding="utf-8")
            except UnicodeDecodeError:
                continue
            spelled.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text))
once = [f"{where}: {name}" for name, where in defined.items()
        if spelled[name] < 2]
print("\n".join(once), end="\n" if once else "")
sys.exit(1 if once else 0)
PY

exit $status
