"""Statistics collection for simulations.

A :class:`StatsRegistry` is shared across a simulated system.  Components
create named counters, scalar gauges and histograms; the benchmark harness
reads them back to produce the rows/series the paper reports.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Optional


class Histogram:
    """A sample accumulator: exact ``count``, ``total`` and ``maximum``
    of every sample added, and the ``mean`` they give.  The samples
    themselves are not kept: a result row reads a histogram as its mean
    and count."""

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.maximum: Optional[float] = None

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class StatsRegistry:
    """Named counters, gauges and histograms for one simulated system.

    Counters/gauges/histograms describe the *simulated outcome* and are
    exported by :meth:`snapshot` into sweep payloads.  The separate
    ``meta`` channel describes how the simulation *ran* (quiescence
    kernel accounting: ticks executed, cycles fast-forwarded across
    fully-idle windows, …) and is deliberately excluded from
    :meth:`snapshot`: a run with sleep/wake scheduling on and one with
    it off produce byte-identical payloads even though their kernel
    accounting differs.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, int] = defaultdict(int)
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = defaultdict(Histogram)
        self.meta: Dict[str, float] = {}

    def incr(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        self.histograms[name].add(value)

    def set_meta(self, name: str, value: float) -> None:
        """Record a kernel/run diagnostic, kept out of :meth:`snapshot`."""
        self.meta[name] = float(value)

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def mean(self, name: str) -> float:
        hist = self.histograms.get(name)
        return hist.mean if hist else 0.0

    def snapshot(self) -> Dict[str, float]:
        """Flatten counters, histogram means and counts, and gauges into
        a plain dict."""
        out: Dict[str, float] = {}
        for name, value in self.counters.items():
            out[name] = float(value)
        for name, hist in self.histograms.items():
            out[name + ".mean"] = hist.mean
            out[name + ".count"] = float(hist.count)
        out.update(self.gauges)
        return out
