"""The figure registry: every table/figure of the evaluation, defined once.

A :class:`Figure` is the single definition of one artifact of the
paper's evaluation:

* ``points(regime, seed)`` — the labelled specs of its sweep (the one
  place the sweep is spelled; they run as one ``run_sweep`` batch, so
  they cache and fan out like any other points);
* ``reduce(results)`` — the printed table plus a dict of named measured
  values;
* ``claims`` — the paper's statements about it: the paper's number from
  :mod:`repro.analysis.paper_data` and a shape predicate over the
  measured values.

``python -m repro figure <id>`` prints the table in the :data:`QUICK`
regime (``--full``: :data:`FULL`); ``benchmarks/test_figures.py`` renders
every id in :data:`FULL` and asserts every claim.  The two regimes are
the only ones there are, each spelled once below (EXPERIMENTS.md explains
the scaling).  Absolute numbers differ from the paper; shapes are the
reproduction target.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, replace
from typing import (Callable, Dict, Iterable, List, Mapping, NamedTuple,
                    Tuple)

from repro.analysis import paper_data as paper
from repro.analysis.comparison import TABLE2, scorpio_row, system_specs
from repro.analysis.latency import breakdown_row, total_latency
from repro.analysis.paper_data import Claim, comparison_table
from repro.core.api import RunResult, normalized_runtimes
from repro.core.config import CHIP_FEATURES, ChipConfig
from repro.experiments import PointSpec, RunSpec, SystemSpec, run_sweep
from repro.workloads.suites import (FIG6A_BENCHMARKS, FIG6BC_BENCHMARKS,
                                    FIG7_BENCHMARKS)

# ---------------------------------------------------------------------------
# Regimes
# ---------------------------------------------------------------------------

# The paper's 256 KiB directory cache, shrunk with the workload footprints.
DIR_CACHE_BYTES = 8 * 1024

# One leg of a figure's sweep: a chip and the benchmarks run on it.
Leg = Tuple[ChipConfig, Tuple[str, ...]]


def chip(width: int, height: int, **noc) -> ChipConfig:
    """A *width* x *height* chip with the down-scaled directory cache."""
    return replace(ChipConfig.variant(width, height, **noc),
                   directory_cache_bytes=DIR_CACHE_BYTES)


@dataclass(frozen=True)
class Regime:
    """One down-scaled evaluation regime: the three workload knobs and,
    per figure id, the legs (chip, benchmark subset) its sweep covers
    (``fig8``: the one sweep Figs. 8a-d share; a leg without benchmarks
    runs only the figure's benchmark-free points)."""

    name: str
    ops_per_core: int
    workload_scale: float
    think_scale: float
    sweeps: Mapping[str, Tuple[Leg, ...]]

    def knobs(self, **overrides) -> Dict[str, float]:
        """The workload knobs as ``RunSpec`` / benchmark-workload
        keywords."""
        return {"ops_per_core": self.ops_per_core,
                "workload_scale": self.workload_scale,
                "think_scale": self.think_scale, **overrides}

    def think_scale_at(self, n_cores: int) -> float:
        """The load rule: beyond the 36-core chip, think times stretch
        with the core count, keeping offered broadcast load at the same
        fraction of the mesh's 1/k^2 capacity (the paper's full-size
        workloads sit below both bounds)."""
        if n_cores <= 36:
            return self.think_scale
        return self.think_scale * n_cores / 36


_SMALL = ("barnes", "lu", "blackscholes", "canneal")
_MESH16, _CHIP16 = ChipConfig.variant(4, 4), chip(4, 4)
_MESH36, _CHIP36 = ChipConfig.variant(6, 6), chip(6, 6)

# What ``repro figure`` renders: 4x4 meshes where the shape survives,
# so a figure takes seconds.
QUICK = Regime(
    "quick", ops_per_core=60, workload_scale=0.05, think_scale=20.0,
    sweeps={
        "fig6a": ((_CHIP16, _SMALL),),
        "fig6b": ((_CHIP16, _SMALL),),
        "fig6c": ((_CHIP16, _SMALL),),
        "fig7": ((_MESH16, ("blackscholes", "vips")),),
        "fig8": ((_CHIP16, ("fft", "lu")),),
        "fig10": ((_CHIP16, ("barnes", "lu")), (_CHIP36, ("barnes", "lu"))),
        "sec2": ((_MESH16, ("blackscholes",)),),
        "incf": ((_CHIP16, ("barnes", "lu")),),
        "fullbit": ((_CHIP16, ("barnes", "lu")),),
        "locks": ((ChipConfig.variant(3, 3), ()),),
    })

# What the harness asserts and ``--full`` renders: the fabricated 36-core
# chip, plus 64-core legs where the paper scales up.
_FIG10 = ("barnes", "blackscholes", "lu")
FULL = Regime(
    "full", ops_per_core=100, workload_scale=0.05, think_scale=20.0,
    sweeps={
        "fig6a": ((_CHIP36, tuple(FIG6A_BENCHMARKS)),
                  (chip(8, 8, goreq_vcs=16), _SMALL)),
        "fig6b": ((_CHIP36, tuple(FIG6BC_BENCHMARKS[:4])),),
        "fig6c": ((_CHIP36, tuple(FIG6BC_BENCHMARKS[:3])),),
        "fig7": ((_MESH16, tuple(FIG7_BENCHMARKS)),),
        "fig8": ((_CHIP36, ("fft", "lu", "water-nsq")),),
        "fig10": ((_CHIP36, _FIG10), (chip(8, 8), _FIG10)),
        "sec2": ((ChipConfig.variant(3, 3), ()),
                 (_MESH16, tuple(FIG7_BENCHMARKS[:2])),
                 (_MESH36, tuple(FIG7_BENCHMARKS[:2]))),
        "incf": ((_CHIP36, ("barnes", "lu", "blackscholes",
                            "fluidanimate")),),
        "fullbit": ((_CHIP36, _SMALL),),
        "locks": ((_MESH36, ()),),
    })


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

Reduced = Tuple[str, Dict[str, float]]     # table text, measured values


@dataclass(frozen=True)
class Figure:
    """One table/figure of the evaluation (see the module docstring)."""

    id: str
    title: str
    reduce: Callable[[List[RunResult]], Reduced]
    points: Callable[[Regime, int], List[PointSpec]] = \
        lambda regime, seed: []
    claims: Tuple[Claim, ...] = ()


class Rendered(NamedTuple):
    """A figure rendered in one regime: its table, its measured values
    and the claims that regime measured, judged."""

    text: str
    measured: Dict[str, float]
    claims: List[Claim]

    def scorecard(self, title: str = "paper vs measured") -> str:
        """One paper / measured / shape / verdict line per claim."""
        return comparison_table(
            {claim.name: (claim.paper, claim.measured, claim.shape,
                          "holds" if claim.verdict else "VIOLATED")
             for claim in self.claims}, title)


FIGURES: Dict[str, Figure] = {}


def _register(*args, **kwargs) -> None:
    figure = Figure(*args, **kwargs)
    FIGURES[figure.id] = figure


def figure_ids() -> List[str]:
    """Every regenerable table/figure id, sorted."""
    return sorted(FIGURES)


def lookup(ids: Iterable[str]) -> List[Figure]:
    """The figures named by *ids*; unknown ids raise before any work
    happens, so a typo cannot waste a long render."""
    ids = list(ids)
    unknown = [fig_id for fig_id in ids if fig_id not in FIGURES]
    if unknown:
        raise KeyError(f"unknown figure(s) {unknown}; known: "
                       f"{figure_ids()}")
    return [FIGURES[fig_id] for fig_id in ids]


def render(fig_id: str, regime: Regime = QUICK, seed: int = 0) -> Rendered:
    """Run one figure's points as one sweep batch and reduce them."""
    figure, = lookup([fig_id])
    text, measured = figure.reduce(run_sweep(figure.points(regime, seed)))
    judged = (claim.judge(measured) for claim in figure.claims)
    return Rendered(text, measured, [claim for claim in judged if claim])


def generate(fig_id: str, regime: Regime = QUICK, seed: int = 0) -> str:
    """The table of one figure/table by id (see :func:`figure_ids`)."""
    return render(fig_id, regime, seed).text


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------

_RELATIONS = {"<": operator.lt, "<=": operator.le, "==": operator.eq,
              ">=": operator.ge, ">": operator.gt}


def _bound(measured: Mapping[str, float], bound) -> float:
    """A claim's *bound*: a number, or the name of a measured value."""
    return measured[bound] if isinstance(bound, str) else bound


def _claim(name: str, paper_value, relation: str, bound,
           key: str = "") -> Claim:
    """The claim that measured value *key* (default: *name*) stands in
    *relation* to *bound*."""
    key = key or name
    return Claim(name, paper_value, key=key, shape=f"{relation} {bound}",
                 holds=lambda m: _RELATIONS[relation](m[key],
                                                      _bound(m, bound)))


def _near(name: str, paper_value, bound, tolerance: float) -> Claim:
    """The claim that measured value *name* is within *tolerance* of
    *bound*."""
    return Claim(name, paper_value, shape=f"within {tolerance} of {bound}",
                 holds=lambda m: abs(m[name] - _bound(m, bound)) < tolerance)


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


def _legs(results: List[RunResult]
          ) -> Dict[int, Dict[str, Dict[str, RunResult]]]:
    """Results as ``{n_cores: {benchmark: {label: result}}}``, each
    level in spec order — how every reducer pairs results to axes."""
    legs: Dict[int, Dict[str, Dict[str, RunResult]]] = {}
    for result in results:
        legs.setdefault(result.n_cores, {}) \
            .setdefault(result.benchmark, {})[result.label] = result
    return legs


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def _benchmark(regime: Regime, name: str, seed: int, **knobs) -> dict:
    """The declarative workload of one benchmark in *regime*."""
    return {"kind": "benchmark", "name": name, "seed": seed,
            **regime.knobs(**knobs)}


_PROTOCOLS = ("lpd", "ht", "scorpio")


def _protocol_grid(sweep: str, protocols=_PROTOCOLS):
    """``points`` of a benchmark x protocol grid over *sweep*'s legs,
    think times following the load rule."""
    def points(regime: Regime, seed: int) -> List[PointSpec]:
        return [RunSpec(benchmark=name, protocol=protocol, config=config,
                        seed=seed, label=protocol,
                        **regime.knobs(think_scale=regime.think_scale_at(
                            config.n_cores)))
                for config, benchmarks in regime.sweeps[sweep]
                for name in benchmarks for protocol in protocols]
    return points


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

def _table1(results) -> Reduced:
    from repro.noc.router import BUFFERED_PIPELINE_DELAY
    from repro.noc.routing import LOCAL, broadcast_outports
    from repro.noc.vc import FLIT_DELAY
    config = ChipConfig.chip_36core()
    noc = config.noc
    derived = {
        "data_packet_flits": noc.data_flits,
        # One injected flit forks through several outports in one ST.
        "noc.multicast": int(len(broadcast_outports(
            0, LOCAL, noc.width, noc.height)) > 1),
        # Arrival to ST is the buffered delay, plus the ST cycle; a flit
        # lands FLIT_DELAY after its ST.
        "noc.router_pipeline_stages": BUFFERED_PIPELINE_DELAY + 1,
        "noc.link_stages": FLIT_DELAY - 1,
        "memory_controllers": len(config.mc_nodes)}
    measured = {row: derived[row] if row in derived
                else functools.reduce(getattr, row.split("."), config)
                for row in paper.TABLE1}
    rows = [[key, value] for key, value in CHIP_FEATURES.items()]
    return _table(["feature", "value"], rows,
                  "Table 1 - SCORPIO chip features"), measured


_register("table1", "Table 1 - chip feature summary", _table1, claims=tuple(
    _claim(row, value, "==", value) for row, value in paper.TABLE1.items()))


def _table2(results) -> Reduced:
    fields = ("clock", "power", "lithography", "core_count", "isa",
              "consistency", "coherency", "interconnect")
    rows = [[spec.name] + [getattr(spec, f) for f in fields]
            for spec in TABLE2]
    scorpio, chip36 = scorpio_row(), ChipConfig.chip_36core()
    measured = {
        "processors": len(TABLE2),
        "scorpio_cores": int(scorpio.core_count),
        "chip_cores": chip36.n_cores,
        "scorpio_mesh_is_the_chip": scorpio.interconnect
        == f"{chip36.noc.width}x{chip36.noc.height} mesh",
        "scorpio_snoopy": scorpio.coherency == "Snoopy",
        "scorpio_l2_private_128k": scorpio.l2 == "128 KB private",
    }
    return _table(["processor"] + list(fields), rows,
                  "Table 2 - multicore processor comparison"), measured


_register("table2", "Table 2 - multicore processor comparison", _table2,
          claims=(
    _claim("processors", paper.TABLE2_PROCESSORS, "==",
           paper.TABLE2_PROCESSORS),
    _claim("scorpio_cores", paper.TABLE1["n_cores"], "==", "chip_cores"),
    _claim("scorpio_mesh_is_the_chip", None, "==", True),
    _claim("scorpio_snoopy", None, "==", True),
    _claim("scorpio_l2_private_128k", None, "==", True)))


# ---------------------------------------------------------------------------
# Figure 6 — protocol comparison
# ---------------------------------------------------------------------------

def _fig6a(results) -> Reduced:
    tables, measured = [], {}
    for cores, grid in _legs(results).items():
        norm = {name: normalized_runtimes(runs, baseline="lpd")
                for name, runs in grid.items()}
        rows = [[name] + [f"{ratios[p]:.3f}" for p in _PROTOCOLS]
                for name, ratios in norm.items()]
        rows.append(["AVG"] + [
            f"{sum(ratios[p] for ratios in norm.values()) / len(norm):.3f}"
            for p in _PROTOCOLS])
        tables.append(_table(
            ["benchmark", "LPD-D", "HT-D", "SCORPIO-D"], rows,
            f"Figure 6a - normalized runtime ({cores} cores; paper: "
            f"SCORPIO -24.1% vs LPD, -12.9% vs HT)"))
        # The claims read the geometric mean, as the paper's average does.
        geomean = {p: math.prod(ratios[p] for ratios in norm.values())
                   ** (1.0 / len(norm)) for p in ("ht", "scorpio")}
        measured[f"scorpio_vs_lpd@{cores}"] = geomean["scorpio"]
        measured[f"ht_vs_lpd@{cores}"] = geomean["ht"]
        measured[f"scorpio_vs_ht@{cores}"] = \
            geomean["scorpio"] / geomean["ht"]
    return "\n".join(tables), measured


_register("fig6a", "Figure 6a - normalized runtime, LPD-D / HT-D / SCORPIO-D",
          _fig6a, _protocol_grid("fig6a"), claims=(
    # SCORPIO fastest on average at both core counts ...
    _claim("scorpio_vs_lpd@36", 1 - paper.RUNTIME_REDUCTION_VS_LPD, "<", 1.0),
    _claim("scorpio_vs_ht@36", 1 - paper.RUNTIME_REDUCTION_VS_HT, "<", 1.0),
    # ... with HT-D between it and LPD-D at 36 cores, as the paper's
    # 24.1 % / 12.9 % arithmetic puts it; at 64 the paper says only that
    # "SCORPIO performs better than LPD and HT despite the broadcast
    # overhead" (EXPERIMENTS.md).
    _claim("ht_vs_lpd@36", paper.ht_vs_lpd_runtime(), "<", 1.02),
    _claim("scorpio_vs_lpd@64", None, "<", 1.0),
    _claim("scorpio_vs_ht@64", None, "<", 1.0)))


def _fig6_breakdown(served: str, title: str, stats):
    """Reducer of one latency-breakdown figure; *stats* lists the
    (category, statistic over the benchmarks) pairs its claims read."""
    def reduce(results) -> Reduced:
        tables, measured = [], {}
        for grid in _legs(results).values():
            rows = []
            for name, runs in grid.items():
                for proto in _PROTOCOLS:
                    breakdown = runs[proto].breakdown(served)
                    total = sum(breakdown.values())
                    parts = " ".join(f"{k}={v:.0f}" for k, v
                                     in sorted(breakdown.items()) if v)
                    rows.append([name, proto.upper(), f"{total:.0f}", parts])
            tables.append(_table(
                ["benchmark", "protocol", "total", "stack (cycles)"],
                rows, title))
            # Per protocol: the mean stack height, and the statistics
            # over the benchmarks that the claims name.
            for proto in _PROTOCOLS:
                stacks = [breakdown_row(runs[proto], served)
                          for runs in grid.values()]
                measured[f"total.{proto}"] = _mean(map(total_latency,
                                                       stacks))
                for category, stat in stats:
                    measured[f"{category}.{proto}.{stat.__name__}"] = \
                        stat(stack[category] for stack in stacks)
        return "\n".join(tables), measured
    return reduce


_register("fig6b", "Figure 6b - latency breakdown, served by other caches",
          _fig6_breakdown(
              "cache", "Figure 6b - latency breakdown, served by other "
              "caches (paper: SCORPIO ~67 cy, -19.4%/-18.3% vs LPD/HT)",
              (("dir_access", min), ("dir_access", max), ("ordering", min))),
          _protocol_grid("fig6b"), claims=(
    # SCORPIO's direct broadcast beats both indirections.
    _claim("cache_served_vs_lpd", paper.CACHE_SERVED_CYCLES["scorpio"],
           "<", "total.lpd", key="total.scorpio"),
    _claim("cache_served_vs_ht", paper.CACHE_SERVED_CYCLES["scorpio"],
           "<", "total.ht", key="total.scorpio"),
    # Composition: SCORPIO pays ordering, never directory access.
    _claim("dir_access.scorpio.max", None, "==", 0.0),
    _claim("ordering.scorpio.min", None, ">", 0.0),
    _claim("dir_access.lpd.min", None, ">", 0.0),
    _claim("dir_access.ht.min", None, ">", 0.0)))

_register("fig6c", "Figure 6c - latency breakdown, served by the directory",
          _fig6_breakdown(
              "memory", "Figure 6c - latency breakdown, served by "
              "directory (paper: HT-D slightly beats SCORPIO here)",
              (("dir_access", sum), ("mem_access", min))),
          _protocol_grid("fig6c"), claims=(
    # LPD's bigger entries -> fewer cached -> the largest directory cost.
    _claim("dir_access.lpd.sum", None, ">=", "dir_access.ht.sum"),
    # Everyone ultimately pays the same DRAM latency term.
    *(_claim(f"mem_access.{proto}.min", None, ">", 0)
      for proto in ("scorpio", "lpd", "ht"))))


# ---------------------------------------------------------------------------
# Figure 7 — ordered-network baselines
# ---------------------------------------------------------------------------

# Higher load than the Fig. 6 regime so ordering stalls are visible (the
# 16-core mesh has 2.25x the per-node broadcast capacity of the 6x6).
FIG7_THINK_SCALE = 8.0

_FIG7_SYSTEMS = (("scorpio", "scorpio", {}),
                 ("tokenb", "tokenb", {}),
                 ("inso20", "inso", {"expiration_window": 20}),
                 ("inso40", "inso", {"expiration_window": 40}),
                 ("inso80", "inso", {"expiration_window": 80}))


def _fig7_points(regime: Regime, seed: int) -> List[PointSpec]:
    return [SystemSpec(builder=builder, config=config, params=params,
                       workload=_benchmark(regime, name, seed,
                                           think_scale=FIG7_THINK_SCALE),
                       label=key)
            for config, benchmarks in regime.sweeps["fig7"]
            for name in benchmarks
            for key, builder, params in _FIG7_SYSTEMS]


def _fig7(results) -> Reduced:
    grid, = _legs(results).values()
    keys = [key for key, _, _ in _FIG7_SYSTEMS]
    norm = {name: {key: runs[key].runtime / runs["scorpio"].runtime
                   for key in keys} for name, runs in grid.items()}
    rows = [[name] + [f"{ratios[key]:.3f}" for key in keys]
            for name, ratios in norm.items()]
    measured = {key: _mean(ratios[key] for ratios in norm.values())
                for key in keys[1:]}
    # Expiry messages per real request, on the first benchmark
    # (``InsoSystem.expiry_overhead``, read from the row's counters).
    for key, run in next(iter(grid.values())).items():
        if key.startswith("inso"):
            sent = run.frame.value("nic.requests_sent")
            measured[f"expiry_ratio.{key}"] = \
                run.frame.value("inso.expiry_messages") / sent \
                if sent else float("inf")
    return _table(
        ["benchmark", "SCORPIO", "TokenB", "INSO-20", "INSO-40", "INSO-80"],
        rows, "Figure 7 - ordered-network baselines, 16 cores "
        "(paper: TokenB ~ SCORPIO; INSO-40 +19.3%, INSO-80 +70%)"), measured


_register("fig7", "Figure 7 - SCORPIO vs TokenB vs INSO (expiry windows "
          "20/40/80)", _fig7, _fig7_points, claims=(
    _claim("tokenb", paper.FIG7_RUNTIME_VS_SCORPIO["tokenb"], "<", 1.1),
    # INSO-20 is "impractical" (expiries swamp requests), not slow; INSO
    # degrades as the expiration window grows.
    _claim("inso20", None, "<", 1.05),
    _claim("inso40", paper.FIG7_RUNTIME_VS_SCORPIO["inso40"], ">=", "inso20"),
    _claim("inso80.vs_inso40", paper.FIG7_RUNTIME_VS_SCORPIO["inso80"],
           ">=", "inso40", key="inso80"),
    _claim("inso80", paper.FIG7_RUNTIME_VS_SCORPIO["inso80"], ">", 1.03),
    _claim("expiry_ratio.inso20", paper.INSO_EXPIRY_RATIO_W20,
           ">", "expiry_ratio.inso80")))


# ---------------------------------------------------------------------------
# Figure 8 — design exploration
# ---------------------------------------------------------------------------

def _fig8(fig_id: str, title: str, axis: str, points: tuple, fabricated,
          configure: Callable[[ChipConfig, object], ChipConfig],
          table_title: str, claims: Tuple[Claim, ...]) -> None:
    """One Fig. 8 sweep: SCORPIO's runtime at each of *points*.  The
    table normalizes to the first point; the measured ``axis=point``
    values are the benchmark average normalized to the *fabricated*
    point (itself therefore 1.0), which is what the claims read."""

    def sweep(regime: Regime, seed: int) -> List[PointSpec]:
        return [RunSpec(benchmark=name, protocol="scorpio",
                        config=configure(base, point), seed=seed,
                        label=str(point), **regime.knobs())
                for base, benchmarks in regime.sweeps["fig8"]
                for name in benchmarks for point in points]

    def reduce(results) -> Reduced:
        grid, = _legs(results).values()
        labels = [str(point) for point in points]
        rows = [[name] + [f"{runs[p].runtime / runs[labels[0]].runtime:.3f}"
                          for p in labels] for name, runs in grid.items()]
        measured = {
            f"{axis}={p}": _mean(runs[p].runtime
                                 / runs[str(fabricated)].runtime
                                 for runs in grid.values())
            for p in labels}
        return _table([f"benchmark \\ {axis}"] + labels, rows,
                      table_title), measured

    _register(fig_id, title, reduce, sweep, claims)


_fig8("fig8a", "Figure 8a - runtime vs channel width (8/16/32 B)",
      "CW(B)", (8, 16, 32), 16, ChipConfig.with_channel_width,
      "Figure 8a - channel width sweep (paper: 8B degrades, 32B marginal "
      "for +46% area)", (
    _claim("CW(B)=8", None, ">=", 0.999),
    _claim("CW(B)=32", None, "<=", "CW(B)=8")))

_fig8("fig8b", "Figure 8b - runtime vs GO-REQ VCs (2/4/6)",
      "VCs", (2, 4, 6), 4, ChipConfig.with_goreq_vcs,
      "Figure 8b - GO-REQ VC sweep (paper: 2 VCs degrade severely; "
      "4 ~ 6)", (
    _claim("VCs=2", None, ">=", 0.999),
    _near("VCs=6", None, "VCs=4", 0.15)))

_fig8("fig8c", "Figure 8c - runtime vs UO-RESP VCs x channel width",
      "(CW,VC)", ((8, 2), (8, 4), (16, 2), (16, 4)), (16, 2),
      lambda base, point: base.with_channel_width(point[0])
      .with_uoresp_vcs(point[1]),
      "Figure 8c - UO-RESP VCs (paper: VC count barely matters once CW "
      "fixed)", (
    _near("(CW,VC)=(16, 4)", None, "(CW,VC)=(16, 2)", 0.1),
    _near("(CW,VC)=(8, 4)", None, "(CW,VC)=(8, 2)", 0.1)))

_fig8("fig8d", "Figure 8d - runtime vs notification bits per core (1/2/3)",
      "bits", (1, 2, 3), 1, ChipConfig.with_notification_bits,
      "Figure 8d - simultaneous notifications (paper: 2b ~10% better with "
      "bursts; 3b no further gain)", (
    _claim("bits=2", 1 - paper.NOTIF_2BIT_GAIN, "<=", 1.02),
    _near("bits=3", None, "bits=2", 0.1)))


# ---------------------------------------------------------------------------
# Figure 9 / Figure 10
# ---------------------------------------------------------------------------

def _fig9(results) -> Reduced:
    from repro.analysis.area_power import (aggregate, paper_tile_budget,
                                           tile_budget)
    budget = paper_tile_budget()
    rows = [[component, f"{budget.power_pct.get(component, 0.0):.1f}",
             f"{budget.area_pct.get(component, 0.0):.1f}"]
            for component in sorted(budget.power_pct)]
    rows.append(["tile total (mW)", f"{budget.tile_power_mw:.0f}", ""])
    rows.append(["chip total (W)", f"{budget.chip_power_w(36):.1f}", ""])
    # The claims read the scaling model (calibrated to the fabricated
    # chip) and its sensitivities, not the transcribed budget above.
    fabricated = ChipConfig.chip_36core()
    model = tile_budget(fabricated)
    wide_notification = tile_budget(fabricated.with_notification_bits(2))
    measured = {
        "nic_router_power_pct": model.power_pct["nic_router"],
        "nic_router_area_pct": model.area_pct["nic_router"],
        "core_l1_power_pct": aggregate(model, {"core+l1": (
            "core", "l1_data", "l1_inst")})["core+l1"],
        "tile_power_mw": model.tile_power_mw,
        "chip_power_w": model.chip_power_w(36),
        "notification_pct": model.notification_pct_of_tile,
        "nic_router_area_pct@32B": tile_budget(
            fabricated.with_channel_width(32)).area_pct["nic_router"],
        "tile_power_mw@6vcs": tile_budget(
            fabricated.with_goreq_vcs(6)).tile_power_mw,
        "notification_pct@2b": wide_notification.notification_pct_of_tile,
    }
    return _table(["component", "power %", "area %"], rows,
                  "Figure 9 - tile overheads (paper: NIC+router 19% "
                  "power / 10% area; L2 46% area)"), measured


_register("fig9", "Figure 9 - tile power and area breakdowns", _fig9,
          claims=(
    _near("nic_router_power_pct", paper.NIC_ROUTER_POWER_PCT,
          paper.NIC_ROUTER_POWER_PCT, 1.0),
    _near("nic_router_area_pct", paper.NIC_ROUTER_AREA_PCT,
          paper.NIC_ROUTER_AREA_PCT, 1.0),
    _near("core_l1_power_pct", paper.CORE_L1_POWER_PCT,
          paper.CORE_L1_POWER_PCT, 2.0),
    _near("tile_power_mw", paper.TILE_POWER_MW, paper.TILE_POWER_MW, 1.0),
    _near("chip_power_w", paper.CHIP_POWER_W, paper.CHIP_POWER_W, 1.0),
    _claim("notification_pct", paper.NOTIFICATION_POWER_PCT_MAX,
           "<", paper.NOTIFICATION_POWER_PCT_MAX),
    # Scaling-model sensitivities (Sec. 5.2): 32 B channels grow the
    # router+NIC area share, 6 VCs cost power, 2-bit notifications cost
    # a little.
    _claim("nic_router_area_pct@32B", None, ">", "nic_router_area_pct"),
    _claim("tile_power_mw@6vcs", None, ">", "tile_power_mw"),
    _claim("notification_pct@2b", None, ">", "notification_pct"),
    _claim("notification_pct@2b.bounded", None, "<", 2.0,
           key="notification_pct@2b")))


# Meshes beyond 36 cores run fewer ops to stay tractable in pure Python.
FIG10_OPS_BEYOND_36 = 80


def _fig10_points(regime: Regime, seed: int) -> List[PointSpec]:
    def ops(config: ChipConfig) -> int:
        if config.n_cores <= 36:
            return regime.ops_per_core
        return min(regime.ops_per_core, FIG10_OPS_BEYOND_36)

    return [RunSpec(benchmark=name, protocol="scorpio",
                    config=config.with_pipelining(pipelined), seed=seed,
                    label=f"{config.noc.width}x{config.noc.height}"
                          f"{'+PL' if pipelined else ''}",
                    **regime.knobs(ops_per_core=ops(config)))
            for config, benchmarks in regime.sweeps["fig10"]
            for name in benchmarks for pipelined in (False, True)]


def _fig10(results) -> Reduced:
    rows, measured = [], {}
    for cores, grid in _legs(results).items():
        latency = {}
        for name, runs in grid.items():
            (mesh, plain), (_, pipelined) = (
                (label, run.avg_l2_service_latency)
                for label, run in runs.items())
            latency[name] = (plain, pipelined)
            gain = 1 - pipelined / plain if plain else 0.0
            rows.append([mesh, name, f"{plain:.1f}", f"{pipelined:.1f}",
                         f"{gain:.1%}"])
        gains = [1 - pipelined / plain
                 for plain, pipelined in latency.values()]
        measured[f"gain@{cores}"] = _mean(gains)
        measured[f"gain.min@{cores}"] = min(gains)
        measured[f"non_pl@{cores}"] = _mean(p for p, _ in latency.values())
        measured[f"pl@{cores}"] = _mean(p for _, p in latency.values())
    return _table(["mesh", "benchmark", "non-PL", "PL", "gain"], rows,
                  "Figure 10 - uncore pipelining (paper: -15% at 36c, "
                  "-19% at 64c, -30.4% at 100c)"), measured


_register("fig10", "Figure 10 - uncore pipelining vs average L2 service "
          "latency", _fig10, _fig10_points, claims=tuple(
    claim for cores in (36, 64) for claim in (
        _claim(f"gain@{cores}", paper.PIPELINING_GAIN[cores], ">", 0.0),
        _claim(f"pl@{cores}", None, "<", f"non_pl@{cores}"))))


# ---------------------------------------------------------------------------
# Extras beyond the paper's numbered figures
# ---------------------------------------------------------------------------

def _sec2_points(regime: Regime, seed: int) -> List[PointSpec]:
    specs = [SystemSpec(builder=builder, config=config, label=label,
                        workload=_benchmark(regime, name, seed,
                                            think_scale=FIG7_THINK_SCALE))
             for config, benchmarks in regime.sweeps["sec2"]
             for name in benchmarks
             for label, builder in (("scorpio", "scorpio"),
                                    ("ts", "timestamp"))]
    # The Uncorq ring is timed on every leg's mesh, benchmarks or not.
    return specs + [SystemSpec(builder="uncorq", config=config,
                               workload={"kind": "lone_write"},
                               label="uncorq")
                    for config, _ in regime.sweeps["sec2"]]


def _sec2(results) -> Reduced:
    tables, ratios, late, measured = [], [], [], {}
    for cores, grid in sorted(_legs(results).items()):
        rows, peaks = [], []
        for runs in grid.values():
            if "uncorq" in runs:
                uncorq = runs["uncorq"]
                ring = int(uncorq.frame["system.ring_traversal_latency"])
                rows.append(["Uncorq",
                             f"(lone write: {uncorq.runtime} cy)",
                             f"ring circuit {ring} cy"])
                measured[f"ring@{cores}"] = ring
                measured[f"lone_write@{cores}"] = uncorq.runtime
                continue
            ts = runs["ts"]
            ratios.append(ts.runtime / runs["scorpio"].runtime)
            peaks.append(int(ts.frame["system.reorder_buffer_peak"]))
            late.append(ts.frame["system.late_arrivals"])
            rows.append(["Timestamp Snooping", f"{ratios[-1]:.3f}",
                         f"reorder peak {peaks[-1]}/node"])
        if peaks:
            measured[f"ts_peak@{cores}"] = max(peaks)
        tables.append(_table(
            ["scheme", "runtime vs SCORPIO", "overhead"], rows,
            f"Sec. 2 critiques measured ({cores} cores; paper: 72 TS "
            f"buffers/node at 36x2, ring wait linear in cores)"))
    measured["ts_vs_scorpio.max"] = max(ratios)
    measured["ts_late_arrivals.max"] = max(late)
    return "\n".join(tables), measured


# SCORPIO's router budget is fixed at 4 GO-REQ VCs + the rVC per port,
# whatever the core count.
_SCORPIO_VC_BUDGET = 4 + 1

_register("sec2", "Sec. 2 critiques quantified: TS reorder buffers and the "
          "Uncorq ring", _sec2, _sec2_points, claims=(
    # The slack covers delivery, and TS orders correctly, so it lands in
    # SCORPIO's ballpark ...
    _claim("ts_late_arrivals.max", None, "==", 0),
    _claim("ts_vs_scorpio.max", None, "<", 1.6),
    # ... but its buffer bill grows with the core count, past SCORPIO's.
    _claim("ts_peak@36", paper.TS_BUFFERS_36CORE, ">", "ts_peak@16"),
    _claim("ts_peak@36.vs_scorpio", paper.TS_BUFFERS_36CORE,
           ">", _SCORPIO_VC_BUDGET, key="ts_peak@36"),
    # The write wait scales linearly with core count, like a ring: ring(36)
    # / ring(9) ~ 4, and the ring bounds the lone write once it dominates
    # the DRAM path.
    Claim("ring@36", None, shape="ring@9 <= ring@16 <= ring@36, growing",
          holds=lambda m: m["ring@9"] <= m["ring@16"] <= m["ring@36"]
          and m["ring@9"] < m["ring@36"]),
    Claim("ring@36.linear", None, key="ring@36", shape="> 3 x ring@9",
          holds=lambda m: m["ring@36"] > 3 * m["ring@9"]),
    _claim("lone_write@36", None, ">=", "ring@36")))


def _incf_points(regime: Regime, seed: int) -> List[PointSpec]:
    return [SystemSpec(builder="directory", config=config,
                       params={"scheme": "HT", "incf": enabled},
                       workload=_benchmark(regime, name, seed),
                       label=f"incf-{'on' if enabled else 'off'}")
            for config, benchmarks in regime.sweeps["incf"]
            for name in benchmarks for enabled in (False, True)]


def _incf(results) -> Reduced:
    grid, = _legs(results).values()
    rows, saved, slowdown, links = [], [], [], []
    for name, runs in grid.items():
        off, on = runs["incf-off"], runs["incf-on"]
        flits = [int(run.frame.value("noc.flits.transmitted"))
                 for run in (off, on)]
        saved.append(1 - flits[1] / flits[0])
        slowdown.append(on.runtime / off.runtime)
        links.append(on.frame.value("incf.links_saved"))
        rows.append([name, str(flits[0]), str(flits[1]),
                     f"{saved[-1]:.1%}"])
    measured = {"flits_saved": _mean(saved), "flits_saved.min": min(saved),
                "links_saved.min": min(links),
                "runtime_ratio.max": max(slowdown),
                "progress.min": min(run.progress for run in results)}
    return _table(["benchmark", "flits off", "flits on", "saved"], rows,
                  "INCF in-network snoop filtering (HT broadcasts)"), \
        measured


_register("incf", "Sec. 5.3 future work - INCF in-network snoop filtering "
          "on HT", _incf, _incf_points, claims=(
    _claim("progress.min", None, "==", 1.0),       # every run finished
    # The filter must save real traffic ...
    _claim("flits_saved.min", None, ">", 0),
    _claim("links_saved.min", None, ">", 0),
    # ... without hurting runtime (it removes only dead snoops).
    _claim("runtime_ratio.max", None, "<=", 1.05),
    _claim("flits_saved", None, ">", 0.05)))


def _fullbit(results) -> Reduced:
    from repro.coherence.directory import DirectoryConfig
    (cores, grid), = _legs(results).items()
    rows, ratios = [], []
    for name, runs in grid.items():
        lpd, full = runs["lpd"].runtime, runs["fullbit"].runtime
        ratios.append(full / lpd)
        rows.append([name, str(lpd), str(full), f"{ratios[-1]:.3f}"])
    measured = {"ratio": _mean(ratios), "ratio.min": min(ratios),
                "ratio.max": max(ratios),
                "progress.min": min(run.progress for run in results)}
    for scheme in ("FULLBIT", "LPD"):
        measured[f"entry_bits.{scheme.lower()}"] = DirectoryConfig(
            scheme=scheme, n_nodes=cores,
            total_cache_bytes=DIR_CACHE_BYTES).entry_bits()
    return _table(["benchmark", "LPD(4 ptr)", "full-bit", "ratio"], rows,
                  "LPD vs full-bit directory (paper: almost identical "
                  "with 3-4 pointers)"), measured


_register("fullbit", "Sec. 5 - LPD with 3-4 pointers vs a full-bit "
          "directory", _fullbit,
          _protocol_grid("fullbit", ("lpd", "fullbit")), claims=(
    _claim("progress.min", None, "==", 1.0),       # every run finished
    # The entry geometry differs ...
    _claim("entry_bits.fullbit", None, ">", "entry_bits.lpd"),
    # ... but the runtimes are almost identical.
    Claim("ratio", 1.0, shape="in (0.9, 1.1)",
          holds=lambda m: 0.9 < m["ratio"] < 1.1),
    _claim("ratio.min", 1.0, ">", 0.85),
    _claim("ratio.max", 1.0, "<", 1.15)))


_LOCKS_SYSTEMS = {"SCORPIO": ("scorpio", {}),
                  "LPD-D": ("directory", {"scheme": "LPD"}),
                  "HT-D": ("directory", {"scheme": "HT"})}


def _locks_points(regime: Regime, seed: int) -> List[PointSpec]:
    return [spec for config, _ in regime.sweeps["locks"]
            for spec in system_specs(
                _LOCKS_SYSTEMS, config=config,
                workload={"kind": "locks", "acquisitions_per_core": 4,
                          "seed": seed + 1})]


def _locks(results) -> Reduced:
    (cores, grid), = _legs(results).items()
    runs, = grid.values()
    handoff = {label: run.frame.value("l2.miss_latency.cache.mean")
               for label, run in runs.items()}
    rows = [[label, str(run.runtime), f"{handoff[label]:.1f}"]
            for label, run in runs.items()]
    measured = {**handoff,
                "progress.min": min(run.progress for run in results)}
    return _table(["system", "runtime", "cache-served latency"], rows,
                  f"Lock handoff, {cores} cores x 4 acquisitions (broadcast "
                  "avoids the per-handoff indirection)"), measured


_register("locks", "Lock handoff under contention across protocols",
          _locks, _locks_points, claims=(
    _claim("progress.min", None, "==", 1.0),       # every run finished
    # The broadcast fabric hands the migrating lock line over faster
    # than either directory indirection (Fig. 6b's cache-served case).
    _claim("SCORPIO", None, "<", "LPD-D"),
    _claim("SCORPIO.vs_ht", None, "<", "HT-D", key="SCORPIO")))
