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
# kind of spec they hold; an isinstance(spec, RunSpec|SystemSpec) branch
# under src/repro is a second execution path.
forbid "spec-kind ladder" \
    'isinstance\([a-z_]+, \(?(RunSpec|SystemSpec)' src/repro

# PR 18 - one system assembly: BaseSystem is the only place a system is
# put together; NICs come from make_nic overrides, not from factories
# closing over holders, and the snoopy L2 loop lives in systems/base.py.
forbid "closure-hack assembly" 'stats_holder|ring_holder|nic_factory' src/repro
found=$(grep -rnE --include='*.py' '(^|[^A-Za-z])L2Controller\(' src/repro \
        | grep -v 'class ' | cut -d: -f1 | sort -u)
[ "$found" = src/repro/systems/base.py ] \
    || fail "second snoopy stack (L2Controller built in: $found)"

# PR 19 - one NIC family: the discipline is the class, lanes live in the
# base; injection-credit trackers are built by the router, the bare-mesh
# tester and NetworkInterface.attach_router alone.
forbid "NIC ordering flag / second credit wheel" \
    'ordering_enabled|_tagged_credit_returns|_mesh_credits|_inject_credits' \
    src/repro
only_in "CreditTracker built outside router/tester/NIC" \
    '(^|[^A-Za-z])CreditTracker\(' \
    "src/repro/nic/controller.py
src/repro/noc/router.py
src/repro/noc/tester.py"

# PR 20 - one result row, one benchmark run body: RunResult (core/api.py)
# is the only result-row class (SweepResult is an assignment) and the
# adapters do not grow back.
forbid "result-row adapters" \
    'to_run_result|sweep_compare|build_benchmark_system' src/repro
[ "$(grep -rhE '^class (RunResult|SweepResult)\b' src/repro | wc -l)" -eq 1 ] \
    || fail "more than one result-row class"

# PR 21 - one figure, one definition: the regimes are records in
# analysis/figures.py; nothing else spells regime numbers, re-assigns or
# patches QUICK, or grows a second sweep loop / table printer, and the
# per-figure spec exporters stay folded into Figure.points.
forbid "regime literal outside the registry" \
    'ops_per_core=[0-9.]+, *workload_scale=[0-9.]|"--(ops|scale|think-scale)".*default=[0-9]' \
    benchmarks src/repro/cli.py
forbid "second sweep loop / printer in the harness" \
    'def _(sweep|print)' benchmarks
only_in "QUICK assigned outside the registry" \
    '^\s*QUICK\w*\s*=' "src/repro/analysis/figures.py"
forbid "QUICK patched instead of passing a regime" \
    'setattr\([^)]*"QUICK"' src tests benchmarks
forbid "per-figure spec exporter / regime flag" \
    'fig7_specs|sec2_specs|incf_specs|locks_specs|_quick_chip|quick: bool' \
    src tests benchmarks examples

# PR 22 - one coherence endpoint: timed callbacks live in an EventWheel
# (no flat _delayed list, no list-comprehension partition); the directory
# L2 overrides seams, not step / _issue; a line leaves the array through
# L2Controller._drop_line and meets the MOSI table in _snoop_array alone;
# data-bearing responses are built by CoherenceRequest.reply.
forbid "flat timed-callback list" '_delayed|\[d for d in' src/repro
forbid "directory L2 copy of step / _issue" \
    'def (step|_issue)\(' src/repro/coherence/dir_l2.py
only_in "line drop outside L2Controller._drop_line" \
    'region_tracker\.line_evicted' "src/repro/coherence/l2_controller.py"
only_in "second MOSI snoop apply" 'on_remote_request\(' \
    "src/repro/coherence/l2_controller.py
src/repro/coherence/mosi.py"
only_in "hand-built CoherenceResponse" 'CoherenceResponse\(' \
    "src/repro/coherence/messages.py"

exit $status
