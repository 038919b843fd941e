"""Processor and system comparisons.

Two halves: the static Table 2 data (contemporary multicore processors,
transcribed from the paper) and :func:`system_specs` — one declarative
workload across any set of registered system builders, as one batch of
specs for ``run_sweep``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, List, Mapping, Optional, Tuple

if TYPE_CHECKING:   # pragma: no cover - typing only
    from repro.core.config import ChipConfig


@dataclass(frozen=True)
class ProcessorSpec:
    name: str
    clock: str
    power: str
    lithography: str
    core_count: str
    isa: str
    l1d: str
    l1i: str
    l2: str
    l3: str
    consistency: str
    coherency: str
    interconnect: str


TABLE2: List[ProcessorSpec] = [
    ProcessorSpec(
        name="Intel Core i7", clock="2-3.3 GHz", power="45-130 W",
        lithography="45 nm", core_count="4-8", isa="x86",
        l1d="32 KB private", l1i="32 KB private", l2="256 KB private",
        l3="8 MB shared", consistency="Processor", coherency="Snoopy",
        interconnect="Point-to-Point (QPI)"),
    ProcessorSpec(
        name="AMD Opteron", clock="2.1-3.6 GHz", power="115-140 W",
        lithography="32 nm SOI", core_count="4-16", isa="x86",
        l1d="16 KB private", l1i="64 KB shared among 2 cores",
        l2="2 MB shared among 2 cores", l3="16 MB shared",
        consistency="Processor",
        coherency="Broadcast-based directory (HT)",
        interconnect="Point-to-Point (HyperTransport)"),
    ProcessorSpec(
        name="TILE64", clock="750 MHz", power="15-22 W",
        lithography="90 nm", core_count="64", isa="MIPS-derived VLIW",
        l1d="8 KB private", l1i="8 KB private", l2="64 KB private",
        l3="N/A", consistency="Relaxed", coherency="Directory",
        interconnect="5 8x8 meshes"),
    ProcessorSpec(
        name="Oracle T5", clock="3.6 GHz", power="-",
        lithography="28 nm", core_count="16", isa="SPARC",
        l1d="16 KB private", l1i="16 KB private", l2="128 KB private",
        l3="8 MB", consistency="Relaxed", coherency="Directory",
        interconnect="8x9 crossbar"),
    ProcessorSpec(
        name="Intel Xeon E7", clock="2.1-2.7 GHz", power="130 W",
        lithography="32 nm", core_count="6-10", isa="x86",
        l1d="32 KB private", l1i="32 KB private", l2="256 KB private",
        l3="18-30 MB shared", consistency="Processor", coherency="Snoopy",
        interconnect="Ring"),
    ProcessorSpec(
        name="SCORPIO", clock="1 GHz (833 MHz post-layout)", power="28.8 W",
        lithography="45 nm SOI", core_count="36", isa="Power",
        l1d="16 KB private", l1i="16 KB private", l2="128 KB private",
        l3="N/A", consistency="Sequential consistency", coherency="Snoopy",
        interconnect="6x6 mesh"),
]


def scorpio_row() -> ProcessorSpec:
    return next(spec for spec in TABLE2 if spec.name == "SCORPIO")


def system_specs(systems: Mapping[str, Tuple[str, Mapping[str, Any]]],
                 workload: Mapping[str, Any],
                 config: Optional["ChipConfig"] = None,
                 max_cycles: int = 400_000) -> List[Any]:
    """One :class:`SystemSpec` per entry of *systems* (a display label
    mapped to ``(builder_name, params)``), all on the same *workload* —
    the "all conditions equal besides the system" methodology, for any
    builders.  ``run_sweep`` of the batch returns the rows in
    *systems* order."""
    from repro.experiments import SystemSpec
    return [SystemSpec(builder=builder, config=config, params=dict(params),
                       workload=dict(workload), max_cycles=max_cycles,
                       label=label)
            for label, (builder, params) in systems.items()]
