"""The engine's registration order *is* its tick order, so a refactor of
system assembly that moves a component class earlier or later changes
simulated behaviour without failing to build.  Pin it for every
registered trace-driven builder (docs/architecture.md "System
assembly")."""

from itertools import groupby

import pytest

from repro.core.config import ChipConfig
from repro.cpu.trace import Trace
from repro.experiments.builders import BUILDERS, get_builder

SNOOPY = ["L2Controller×9", "MemoryController×2", "TraceCore×9"]


def _order(nic: str, routers: int = 9, ordered: bool = True, tail=()):
    return ([f"Router×{routers}", f"{nic}×9"]
            + (["NotificationNetwork"] if ordered else [])
            + SNOOPY + list(tail))


TICK_ORDER = {
    "scorpio": _order("OrderedNetworkInterface"),
    "multimesh": _order("MultiMeshInterface", routers=18),
    "directory": ["Router×9", "NetworkInterface×9",
                  "DirectoryL2Controller×9", "DirectoryController×9",
                  "MemoryController×2", "TraceCore×9"],
    "tokenb": _order("NetworkInterface", ordered=False),
    "inso": _order("InsoNetworkInterface", ordered=False),
    "timestamp": _order("TimestampNetworkInterface", ordered=False),
    "uncorq": _order("UncorqNetworkInterface", ordered=False,
                     tail=["LogicalRing"]),
}


def test_every_trace_driven_builder_is_pinned():
    trace_driven = {name for name, builder in BUILDERS.items()
                    if builder.system}
    assert trace_driven == set(TICK_ORDER)


@pytest.mark.parametrize("name", sorted(TICK_ORDER))
def test_engine_registration_order(name):
    builder = get_builder(name)
    system = builder.system_class(ChipConfig.variant(3, 3),
                                  [Trace([]) for _ in range(9)])
    runs = [(cls, len(list(run))) for cls, run in groupby(
        type(component).__name__ for component in system.engine._components)]
    assert [f"{cls}×{n}" if n > 1 else cls for cls, n in runs] \
        == TICK_ORDER[name]
