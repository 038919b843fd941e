"""Figure regeneration: every table/figure of the evaluation as a function.

Each ``fig_*`` function runs the (down-scaled) experiment behind one of
the paper's tables or figures and returns formatted text with the same
rows/series the paper reports.  The benchmark harness under
``benchmarks/`` runs the full-regime versions with shape assertions;
this module is the interactive entry point behind ``python -m repro
figure <id>`` — smaller meshes and fewer operations by default so a
figure renders in seconds to a couple of minutes on a laptop.

Absolute numbers differ from the paper (see EXPERIMENTS.md); shapes are
the reproduction target.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.core.api import normalized_runtimes
from repro.core.config import CHIP_FEATURES, ChipConfig
from repro.experiments import RunSpec, run_grid, run_sweep

# The quick regime: same scaling philosophy as benchmarks/conftest.py at
# a size that renders interactively.
QUICK = dict(ops_per_core=60, workload_scale=0.05, think_scale=20.0)
QUICK_BENCHMARKS = ("barnes", "lu", "blackscholes", "canneal")


def _table(header: List[str], rows: List[List[str]], title: str) -> str:
    widths = [max(len(header[i]), *(len(row[i]) for row in rows))
              for i in range(len(header))]
    lines = [title, ""]
    lines.append("  ".join(h.ljust(widths[i])
                           for i, h in enumerate(header)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines) + "\n"


def _quick_chip(quick: bool) -> ChipConfig:
    from dataclasses import replace
    config = ChipConfig.variant(4, 4) if quick else ChipConfig.chip_36core()
    return replace(config, directory_cache_bytes=8 * 1024)


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

def table1(quick: bool = True, seed: int = 0) -> str:
    """Table 1 — chip feature summary."""
    rows = [[key, value] for key, value in CHIP_FEATURES.items()]
    return _table(["feature", "value"], rows,
                  "Table 1 - SCORPIO chip features")


def table2(quick: bool = True, seed: int = 0) -> str:
    """Table 2 — multicore processor comparison."""
    from repro.analysis.comparison import TABLE2
    fields = ("clock", "power", "lithography", "core_count", "isa",
              "consistency", "coherency", "interconnect")
    rows = [[spec.name] + [getattr(spec, f) for f in fields]
            for spec in TABLE2]
    return _table(["processor"] + list(fields), rows,
                  "Table 2 - multicore processor comparison")


# ---------------------------------------------------------------------------
# Figure 6 — protocol comparison
# ---------------------------------------------------------------------------

def fig6a(quick: bool = True, seed: int = 0) -> str:
    """Normalized runtime: LPD-D / HT-D / SCORPIO-D."""
    config = _quick_chip(quick)
    benchmarks = QUICK_BENCHMARKS if quick else (
        "barnes", "fft", "fmm", "lu", "nlu", "radix", "water-nsq",
        "water-spatial", "blackscholes", "canneal", "fluidanimate",
        "swaptions")
    rows = []
    sums = {"lpd": 0.0, "ht": 0.0, "scorpio": 0.0}
    grid = run_grid(benchmarks, ("lpd", "ht", "scorpio"), config=config,
                    seed=seed, **QUICK)
    for name in benchmarks:
        norm = normalized_runtimes(grid[name], baseline="lpd")
        for proto in sums:
            sums[proto] += norm[proto]
        rows.append([name] + [f"{norm[p]:.3f}"
                              for p in ("lpd", "ht", "scorpio")])
    n = len(benchmarks)
    rows.append(["AVG"] + [f"{sums[p] / n:.3f}"
                           for p in ("lpd", "ht", "scorpio")])
    return _table(["benchmark", "LPD-D", "HT-D", "SCORPIO-D"], rows,
                  f"Figure 6a - normalized runtime ({config.n_cores} "
                  f"cores; paper: SCORPIO -24.1% vs LPD, -12.9% vs HT)")


def _fig6_breakdown(served: str, title: str, quick: bool,
                    seed: int) -> str:
    config = _quick_chip(quick)
    benchmarks = QUICK_BENCHMARKS if quick else (
        "barnes", "fft", "lu", "blackscholes", "canneal", "fluidanimate")
    protocols = ("lpd", "ht", "scorpio")
    rows = []
    grid = run_grid(benchmarks, protocols, config=config, seed=seed,
                    **QUICK)
    for name in benchmarks:
        for proto in protocols:
            breakdown = grid[name][proto].breakdown(served)
            total = sum(breakdown.values())
            parts = " ".join(f"{k}={v:.0f}"
                             for k, v in sorted(breakdown.items()) if v)
            rows.append([name, proto.upper(), f"{total:.0f}", parts])
    return _table(["benchmark", "protocol", "total", "stack (cycles)"],
                  rows, title)


def fig6b(quick: bool = True, seed: int = 0) -> str:
    """Latency breakdown, requests served by other caches."""
    return _fig6_breakdown(
        "cache", "Figure 6b - latency breakdown, served by other caches "
        "(paper: SCORPIO ~67 cy, -19.4%/-18.3% vs LPD/HT)", quick, seed)


def fig6c(quick: bool = True, seed: int = 0) -> str:
    """Latency breakdown, requests served by the directory/memory."""
    return _fig6_breakdown(
        "memory", "Figure 6c - latency breakdown, served by directory "
        "(paper: HT-D slightly beats SCORPIO here)", quick, seed)


# ---------------------------------------------------------------------------
# Figure 7 — ordered-network baselines
# ---------------------------------------------------------------------------

_FIG7_SYSTEMS = (("scorpio", "scorpio", {}),
                 ("tokenb", "tokenb", {}),
                 ("inso20", "inso", {"expiration_window": 20}),
                 ("inso40", "inso", {"expiration_window": 40}),
                 ("inso80", "inso", {"expiration_window": 80}))


def fig7_specs(quick: bool = True, seed: int = 0):
    """The (axis, spec) points behind :func:`fig7`.

    Exported so the checked-in experiment documents under
    ``examples/experiments/`` can be regression-tested byte-identical to
    the code path (see tests/test_experiment_documents.py)."""
    from repro.experiments import SystemSpec

    config = ChipConfig.variant(4, 4)
    benchmarks = ("blackscholes", "vips") if quick else (
        "blackscholes", "streamcluster", "swaptions", "vips")

    def workload(name):
        return {"kind": "benchmark", "name": name,
                "ops_per_core": QUICK["ops_per_core"],
                "workload_scale": QUICK["workload_scale"],
                "think_scale": 8.0, "seed": seed}

    axes = [(name, key) for name in benchmarks
            for key, _, _ in _FIG7_SYSTEMS]
    specs = [SystemSpec(builder=builder, config=config, params=params,
                        workload=workload(name), label=key)
             for name in benchmarks
             for key, builder, params in _FIG7_SYSTEMS]
    return benchmarks, axes, specs


def fig7(quick: bool = True, seed: int = 0) -> str:
    """SCORPIO vs TokenB vs INSO (expiry windows 20/40/80)."""
    benchmarks, axes, specs = fig7_specs(quick, seed)
    systems = _FIG7_SYSTEMS
    runtimes = {axis: result.runtime
                for axis, result in zip(axes, run_sweep(specs))}
    rows = []
    for name in benchmarks:
        base = runtimes[(name, "scorpio")]
        rows.append([name] + [f"{runtimes[(name, key)] / base:.3f}"
                              for key, _, _ in systems])
    return _table(
        ["benchmark", "SCORPIO", "TokenB", "INSO-20", "INSO-40", "INSO-80"],
        rows, "Figure 7 - ordered-network baselines, 16 cores "
        "(paper: TokenB ~ SCORPIO; INSO-40 +19.3%, INSO-80 +70%)")


# ---------------------------------------------------------------------------
# Figure 8 — design exploration
# ---------------------------------------------------------------------------

def _sweep(config_of: Callable[[object], ChipConfig], points,
           label: str, title: str, quick: bool, seed: int,
           benchmarks=None) -> str:
    benchmarks = benchmarks or (("fft", "lu") if quick
                                else ("barnes", "fft", "lu", "radix"))
    # Pair each result to its (benchmark, point) axis explicitly via
    # zip, so the consumption below cannot drift from the spec order.
    axes = [(name, point) for name in benchmarks for point in points]
    specs = [RunSpec(benchmark=name, protocol="scorpio",
                     config=config_of(point), seed=seed, label=str(point),
                     **QUICK)
             for name, point in axes]
    runtimes = {axis: result.runtime
                for axis, result in zip(axes, run_sweep(specs))}
    rows = []
    for name in benchmarks:
        base = runtimes[(name, points[0])]
        rows.append([name] + [f"{runtimes[(name, p)] / base:.3f}"
                              for p in points])
    return _table([label] + [str(p) for p in points], rows, title)


def fig8a(quick: bool = True, seed: int = 0) -> str:
    """Runtime vs channel width (8/16/32 B)."""
    base = _quick_chip(quick)
    return _sweep(lambda cw: base.with_channel_width(cw), (8, 16, 32),
                  "benchmark \\ CW(B)",
                  "Figure 8a - channel width sweep (paper: 8B degrades, "
                  "32B marginal for +46% area)", quick, seed)


def fig8b(quick: bool = True, seed: int = 0) -> str:
    """Runtime vs GO-REQ VCs (2/4/6)."""
    base = _quick_chip(quick)
    return _sweep(lambda vcs: base.with_goreq_vcs(vcs), (2, 4, 6),
                  "benchmark \\ VCs",
                  "Figure 8b - GO-REQ VC sweep (paper: 2 VCs degrade "
                  "severely; 4 ~ 6)", quick, seed)


def fig8c(quick: bool = True, seed: int = 0) -> str:
    """Runtime vs UO-RESP VC/channel-width combinations."""
    base = _quick_chip(quick)

    def config_of(point):
        cw, vcs = point
        return base.with_channel_width(cw).with_uoresp_vcs(vcs)

    return _sweep(config_of, ((8, 2), (8, 4), (16, 2), (16, 4)),
                  "benchmark \\ (CW,VC)",
                  "Figure 8c - UO-RESP VCs (paper: VC count barely "
                  "matters once CW fixed)", quick, seed)


def fig8d(quick: bool = True, seed: int = 0) -> str:
    """Runtime vs notification bits per core (1/2/3)."""
    base = _quick_chip(quick)
    return _sweep(lambda bits: base.with_notification_bits(bits), (1, 2, 3),
                  "benchmark \\ bits",
                  "Figure 8d - simultaneous notifications (paper: 2b ~10% "
                  "better with bursts; 3b no further gain)", quick, seed)


# ---------------------------------------------------------------------------
# Figure 9 / Figure 10
# ---------------------------------------------------------------------------

def fig9(quick: bool = True, seed: int = 0) -> str:
    """Tile power and area breakdowns (calibrated model)."""
    from repro.analysis.area_power import paper_tile_budget
    budget = paper_tile_budget()
    rows = [[component, f"{budget.power_pct.get(component, 0.0):.1f}",
             f"{budget.area_pct.get(component, 0.0):.1f}"]
            for component in sorted(budget.power_pct)]
    rows.append(["tile total (mW)", f"{budget.tile_power_mw:.0f}", ""])
    rows.append(["chip total (W)", f"{budget.chip_power_w(36):.1f}", ""])
    return _table(["component", "power %", "area %"], rows,
                  "Figure 9 - tile overheads (paper: NIC+router 19% "
                  "power / 10% area; L2 46% area)")


def fig10(quick: bool = True, seed: int = 0) -> str:
    """Uncore pipelining effect on average L2 service latency."""
    meshes = ((4, 4), (6, 6)) if quick else ((6, 6), (8, 8))
    benchmarks = ("barnes", "lu") if quick else (
        "barnes", "blackscholes", "canneal", "fft", "fluidanimate", "lu")
    axes = [(mesh, name, pipelined) for mesh in meshes
            for name in benchmarks for pipelined in (False, True)]
    specs = [RunSpec(benchmark=name, protocol="scorpio",
                     config=ChipConfig.variant(*mesh)
                     .with_pipelining(pipelined), seed=seed, **QUICK)
             for mesh, name, pipelined in axes]
    latency = {axis: result.avg_l2_service_latency
               for axis, result in zip(axes, run_sweep(specs))}
    rows = []
    for width, height in meshes:
        for name in benchmarks:
            latencies = {pipelined: latency[((width, height), name,
                                             pipelined)]
                         for pipelined in (False, True)}
            gain = 1 - latencies[True] / latencies[False] \
                if latencies[False] else 0.0
            rows.append([f"{width}x{height}", name,
                         f"{latencies[False]:.1f}", f"{latencies[True]:.1f}",
                         f"{gain:.1%}"])
    return _table(["mesh", "benchmark", "non-PL", "PL", "gain"], rows,
                  "Figure 10 - uncore pipelining (paper: -15% at 36c, "
                  "-19% at 64c, -30.4% at 100c)")


# ---------------------------------------------------------------------------
# Extras beyond the paper's numbered figures
# ---------------------------------------------------------------------------

def sec2_specs(quick: bool = True, seed: int = 0):
    """The spec list behind :func:`sec2` (scorpio, timestamp, uncorq) —
    exported for the document regression tests."""
    from repro.experiments import SystemSpec

    mesh = (4, 4) if quick else (6, 6)
    config = ChipConfig.variant(*mesh)
    workload = {"kind": "benchmark", "name": "blackscholes",
                "ops_per_core": QUICK["ops_per_core"],
                "workload_scale": QUICK["workload_scale"],
                "think_scale": 8.0, "seed": seed}
    return [
        SystemSpec(builder="scorpio", config=config, workload=workload,
                   label="scorpio"),
        SystemSpec(builder="timestamp", config=config, workload=workload,
                   label="ts"),
        SystemSpec(builder="uncorq", config=config,
                   workload={"kind": "lone_write"}, label="uncorq"),
    ]


def sec2(quick: bool = True, seed: int = 0) -> str:
    """Sec. 2 critiques quantified: TS buffers and the Uncorq ring."""
    specs = sec2_specs(quick, seed)
    n = specs[0].resolved_config().n_cores
    scorpio, ts, uncorq = run_sweep(specs)
    base = scorpio.runtime
    rows = [["Timestamp Snooping", f"{ts.runtime / base:.3f}",
             f"reorder peak "
             f"{int(ts.frame['system.reorder_buffer_peak'])}/node"]]
    rows.append(["Uncorq", f"(lone write: {uncorq.runtime} cy)",
                 f"ring circuit "
                 f"{int(uncorq.frame['system.ring_traversal_latency'])} cy"])
    return _table(["scheme", "runtime vs SCORPIO", "overhead"], rows,
                  f"Sec. 2 critiques measured ({n} cores; paper: 72 TS "
                  f"buffers/node at 36x2, ring wait linear in cores)")


def incf_specs(quick: bool = True, seed: int = 0):
    """The (axis, spec) points behind :func:`incf` — exported for the
    document regression tests."""
    from repro.experiments import SystemSpec

    config = _quick_chip(quick)
    benchmarks = ("barnes", "lu") if quick else ("barnes", "lu",
                                                 "blackscholes",
                                                 "fluidanimate")
    axes = [(name, enabled) for name in benchmarks
            for enabled in (False, True)]
    specs = [SystemSpec(builder="directory", config=config,
                        params={"scheme": "HT", "incf": enabled},
                        workload={"kind": "benchmark", "name": name,
                                  "seed": seed, **QUICK},
                        label=f"incf-{'on' if enabled else 'off'}")
             for name, enabled in axes]
    return benchmarks, axes, specs


def incf(quick: bool = True, seed: int = 0) -> str:
    """Sec. 5.3 future work: in-network snoop filtering on HT."""
    benchmarks, axes, specs = incf_specs(quick, seed)
    flits = {axis: int(result.frame.value("noc.flits.transmitted"))
             for axis, result in zip(axes, run_sweep(specs))}
    rows = []
    for name in benchmarks:
        saved = 1 - flits[(name, True)] / flits[(name, False)]
        rows.append([name, str(flits[(name, False)]),
                     str(flits[(name, True)]), f"{saved:.1%}"])
    return _table(["benchmark", "flits off", "flits on", "saved"], rows,
                  "INCF in-network snoop filtering (HT broadcasts)")


def fullbit(quick: bool = True, seed: int = 0) -> str:
    """Sec. 5 claim: LPD with 3-4 pointers ~ full-bit directory."""
    config = _quick_chip(quick)
    benchmarks = ("barnes", "lu") if quick else QUICK_BENCHMARKS
    grid = run_grid(benchmarks, ("lpd", "fullbit"), config=config,
                    seed=seed, **QUICK)
    rows = []
    for name in benchmarks:
        runtimes = {protocol: grid[name][protocol].runtime
                    for protocol in ("lpd", "fullbit")}
        rows.append([name, str(runtimes["lpd"]), str(runtimes["fullbit"]),
                     f"{runtimes['fullbit'] / runtimes['lpd']:.3f}"])
    return _table(["benchmark", "LPD(4 ptr)", "full-bit", "ratio"], rows,
                  "LPD vs full-bit directory (paper: almost identical "
                  "with 3-4 pointers)")


_LOCKS_SYSTEMS = {"SCORPIO": ("scorpio", {}),
                  "LPD-D": ("directory", {"scheme": "LPD"}),
                  "HT-D": ("directory", {"scheme": "HT"})}


def locks_specs(quick: bool = True, seed: int = 0):
    """The spec list behind :func:`locks` — exported for the document
    regression tests (built by the same helper
    :func:`~repro.analysis.comparison.compare_systems` uses)."""
    from repro.analysis.comparison import system_specs

    mesh = (3, 3) if quick else (6, 6)
    return system_specs(_LOCKS_SYSTEMS,
                        workload={"kind": "locks",
                                  "acquisitions_per_core": 4,
                                  "seed": seed + 1},
                        config=ChipConfig.variant(*mesh))


def locks(quick: bool = True, seed: int = 0) -> str:
    """Lock handoff under contention across protocols."""
    from repro.analysis.comparison import compare_systems

    mesh = (3, 3) if quick else (6, 6)
    config = ChipConfig.variant(*mesh)
    n = config.n_cores
    results = compare_systems(
        _LOCKS_SYSTEMS,
        workload={"kind": "locks", "acquisitions_per_core": 4,
                  "seed": seed + 1},
        config=config)
    rows = [[label, str(result.runtime),
             f"{result.frame.value('l2.miss_latency.cache.mean'):.1f}"]
            for label, result in results.items()]
    return _table(["system", "runtime", "cache-served latency"], rows,
                  f"Lock handoff, {n} cores x 4 acquisitions (broadcast "
                  "avoids the per-handoff indirection)")


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

FIGURES: Dict[str, Callable[..., str]] = {
    "table1": table1, "table2": table2,
    "fig6a": fig6a, "fig6b": fig6b, "fig6c": fig6c,
    "fig7": fig7,
    "fig8a": fig8a, "fig8b": fig8b, "fig8c": fig8c, "fig8d": fig8d,
    "fig9": fig9, "fig10": fig10,
    "sec2": sec2, "incf": incf, "fullbit": fullbit, "locks": locks,
}


def figure_ids() -> List[str]:
    """Every regenerable table/figure id, sorted."""
    return sorted(FIGURES)


def generate(fig_id: str, quick: bool = True, seed: int = 0) -> str:
    """Render one figure/table by id (see :func:`figure_ids`)."""
    try:
        fn = FIGURES[fig_id]
    except KeyError:
        raise KeyError(f"unknown figure {fig_id!r}; known: "
                       f"{figure_ids()}") from None
    return fn(quick=quick, seed=seed)
