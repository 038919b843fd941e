"""Analysis: latency decomposition, area/power model, Table 2 data."""

from repro.analysis.area_power import (CHIP_POWER_W, PAPER_TILE_AREA_PCT,
                                       PAPER_TILE_POWER_PCT, TILE_POWER_MW,
                                       TileBudget, aggregate,
                                       paper_tile_budget, tile_budget)
from repro.analysis.comparison import (TABLE2, ProcessorSpec, as_rows,
                                       scorpio_row)
from repro.analysis.energy import (NIC_ROUTER_POWER_MW, EnergyModel,
                                   EnergyParams, EnergyReport)
from repro.analysis.report_html import (ObservabilityDriftError,
                                        RunObservation,
                                        collect_observations,
                                        render_report_html, result_digest,
                                        write_html_report)
from repro.analysis.latency import (CACHE_SERVED_CATEGORIES,
                                    MEMORY_SERVED_CATEGORIES, breakdown_row,
                                    total_latency)

__all__ = [
    "CHIP_POWER_W", "PAPER_TILE_AREA_PCT", "PAPER_TILE_POWER_PCT",
    "TILE_POWER_MW", "TileBudget", "aggregate", "paper_tile_budget",
    "tile_budget",
    "TABLE2", "ProcessorSpec", "as_rows", "scorpio_row",
    "NIC_ROUTER_POWER_MW", "EnergyModel", "EnergyParams", "EnergyReport",
    "ObservabilityDriftError", "RunObservation", "collect_observations",
    "render_report_html", "result_digest", "write_html_report",
    "CACHE_SERVED_CATEGORIES", "MEMORY_SERVED_CATEGORIES", "breakdown_row",
    "total_latency",
]
