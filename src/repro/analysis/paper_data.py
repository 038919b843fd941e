"""The paper's reported results as structured data.

Every number the evaluation section states, transcribed once; the figure
registry (:mod:`repro.analysis.figures`) takes each claim's paper value
from here, so the harness prints paper vs measured side by side instead
of scattering magic constants through the benches.  Values are exactly
as printed in the paper; derived quantities (e.g. the implied HT-vs-LPD
ratio) are computed, not transcribed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Mapping, Optional

# ---------------------------------------------------------------------------
# Headline results (abstract / Sec. 5.1)
# ---------------------------------------------------------------------------

RUNTIME_REDUCTION_VS_LPD = 0.241      # "average application runtime
RUNTIME_REDUCTION_VS_HT = 0.129       #  reduction of 24.1% and 12.9%"

AVG_L2_SERVICE_CYCLES = {"scorpio": 78, "lpd": 94, "ht": 91}

# Figure 6b: requests served by other caches (36 cores).
CACHE_SERVED_CYCLES = {"scorpio": 67}
CACHE_SERVED_REDUCTION = {"lpd": 0.194, "ht": 0.183}

# Sec. 5.1: overall request-delivery improvement.
DELIVERY_REDUCTION = {"lpd": 0.17, "ht": 0.14}
DIRECTORY_SERVED_FRACTION = 0.10      # "directory only serves 10%"

# Figure 7 (16 cores, normalized to SCORPIO).
FIG7_RUNTIME_VS_SCORPIO = {
    "tokenb": 1.0,                    # "performance similar to SCORPIO"
    "inso40": 1.193 / 1.0,            # SCORPIO 19.3% less than INSO-40
    "inso80": 1.70,                   # 70% less than INSO-80
}
INSO_EXPIRY_RATIO_W20 = 25            # "ratio of expiry messages ... 25"

# Sec. 2: Timestamp Snooping buffer critique.
TS_BUFFERS_36CORE = 72                # 36 cores x 2 outstanding

# Figure 8 / Sec. 5.2 design exploration.
CHANNEL_WIDTH_AREA_COST_32B = 0.46    # 32B channel: +46% router+NIC area
VCS6_AREA_COST = 0.15                 # 4 VCs 15% more area-efficient than 6
VCS6_POWER_COST = 0.12                # ... and 12% less power
NOTIF_2BIT_GAIN = 0.10                # 2-bit notification ~10% better

# Figure 10: uncore pipelining gains by core count.
PIPELINING_GAIN = {36: 0.15, 64: 0.19, 100: 0.304}

# Sec. 5.3: broadcast capacity of a k x k mesh.
BROADCAST_CAPACITY = {36: 0.027, 100: 0.01}

# Figure 9 totals (Table 1 / Sec. 5.4).
TILE_POWER_MW = 768.0
CHIP_POWER_W = 28.8
NIC_ROUTER_POWER_PCT = 19.0
NIC_ROUTER_AREA_PCT = 10.0
L2_AREA_PCT = 46.0
CORE_POWER_PCT = 54.0
CORE_L1_POWER_PCT = 62.0              # core plus both L1s
NOTIFICATION_POWER_PCT_MAX = 1.0      # "<1 %" of tile power

# Table 1, the rows the simulator models, each keyed by the ChipConfig
# field that holds it (flags as 0/1); the multicast fork and the stage
# counts are read off the router's routing and timing instead.
TABLE1 = {
    "noc.width": 6, "noc.height": 6, "n_cores": 36,
    "noc.channel_width_bytes": 16, "data_packet_flits": 3,
    "noc.goreq_vcs": 4, "noc.goreq_vc_depth": 1,
    "noc.uoresp_vcs": 2, "noc.uoresp_vc_depth": 3, "noc.reserved_vc": 1,
    "noc.multicast": 1, "noc.lookahead_bypass": 1,
    "noc.router_pipeline_stages": 3, "noc.link_stages": 1,
    "notification.bits_per_core": 1, "notification.window": 13,
    "notification.max_pending": 4,
    "cache.l2_size": 128 * 1024, "cache.l2_ways": 4,
    "noc.line_size_bytes": 32,
    "cache.region_bytes": 4096, "cache.region_entries": 128,
    "core.max_outstanding": 2, "memory_controllers": 2,
}
TABLE2_PROCESSORS = 6                 # columns of Table 2, SCORPIO included


def ht_vs_lpd_runtime() -> float:
    """The HT-D / LPD-D runtime ratio implied by the two headline
    reductions (SCORPIO = (1-0.241) x LPD = (1-0.129) x HT)."""
    return (1 - RUNTIME_REDUCTION_VS_LPD) / (1 - RUNTIME_REDUCTION_VS_HT)


# ---------------------------------------------------------------------------
# Claims and side-by-side rendering
# ---------------------------------------------------------------------------

@dataclass
class Claim:
    """One paper claim paired with a measured value.

    *paper* is the number the paper prints (None where it states a shape
    and no number).  A figure's claims (:mod:`repro.analysis.figures`)
    also carry the shape the reproduction asserts: *holds*, a predicate
    over that figure's measured values, and *shape*, the same in words.
    *key* names the measured value reported next to the paper's
    (default: the claim's own name).
    """

    name: str
    paper: Optional[float]
    measured: Optional[float] = None
    unit: str = ""
    higher_is_better: bool = False
    shape: str = ""
    holds: Optional[Callable[[Mapping[str, float]], bool]] = None
    key: str = ""
    verdict: Optional[bool] = None

    @property
    def ratio(self) -> Optional[float]:
        """measured / paper, or None when unmeasured or paper is 0."""
        if self.measured is None or not self.paper:
            return None
        return self.measured / self.paper

    def judge(self, values: Mapping[str, float]) -> Optional["Claim"]:
        """This claim with ``measured`` and ``verdict`` filled in from a
        figure's measured *values*; None when they do not include its
        key (the regime that produced them did not run that leg)."""
        key = self.key or self.name
        if key not in values:
            return None
        return replace(self, measured=values[key],
                       verdict=bool(self.holds(values)))


def comparison_table(claims: Mapping[str, tuple],
                     title: str = "paper vs measured") -> str:
    """Render {name: (paper, measured, *notes)} as an aligned text
    table; a missing paper or measured value prints as a dash."""
    def number(value) -> str:
        return f"{'—':>10}" if value is None else f"{value:>10.3f}"

    lines = [title, ""]
    width = max((len(name) for name in claims), default=4)
    notes = [max(map(len, column)) for column in
             zip(*(row[2:] for row in claims.values()))]
    lines.append(f"{'claim':<{width}}  {'paper':>10}  {'measured':>10}")
    lines.append("-" * (width + 26))
    for name, (paper, measured, *rest) in claims.items():
        lines.append("  ".join(
            [f"{name:<{width}}", number(paper), number(measured)]
            + [note.ljust(notes[i]) for i, note in enumerate(rest)]))
    return "\n".join(lines) + "\n"
