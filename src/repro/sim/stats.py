"""Statistics collection for simulations.

A :class:`StatsRegistry` is shared across a simulated system.  Components
create named counters, scalar gauges and histograms; the benchmark harness
reads them back to produce the rows/series the paper reports.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Dict, Iterable, List, Optional

# Default bound on retained histogram samples.  Long simulations observe
# one latency sample per request — unbounded retention made a histogram
# the only simulator structure whose memory grew linearly with simulated
# time.  Count/total/min/max/mean stay exact at any cap; only
# :meth:`Histogram.percentile` becomes an approximation once more than
# ``cap`` samples arrive (computed over a uniform reservoir).  Set a cap
# of 0 (or pass ``cap=0``) to retain everything.
DEFAULT_SAMPLE_CAP = 4096


class Histogram:
    """A sample accumulator with summary statistics.

    Exact ``count``/``total``/``mean``/``minimum``/``maximum`` for every
    sample ever added; the raw samples backing :meth:`percentile` are
    bounded by *cap* via deterministic reservoir sampling (Vitter's
    algorithm R with a fixed-seed RNG, so identical add sequences keep
    identical reservoirs in every process — parallel sweeps stay
    bit-identical to serial ones).
    """

    def __init__(self, cap: Optional[int] = None) -> None:
        self._count = 0
        self._total = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._samples: List[float] = []
        self._cap = DEFAULT_SAMPLE_CAP if cap is None else cap
        self._rng = random.Random(0x5C0_B10) if self._cap > 0 else None

    def add(self, value: float) -> None:
        self._count += 1
        self._total += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        # Reservoir update (algorithm R) over all _count samples so far.
        if self._cap <= 0 or len(self._samples) < self._cap:
            self._samples.append(value)
        else:
            slot = self._rng.randrange(self._count)
            if slot < self._cap:
                self._samples[slot] = value

    def samples(self) -> List[float]:
        """The retained samples (all of them below the cap, a uniform
        reservoir beyond it)."""
        return list(self._samples)

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._total

    @property
    def mean(self) -> float:
        return self._total / self._count if self._count else 0.0

    @property
    def minimum(self) -> Optional[float]:
        return self._min

    @property
    def maximum(self) -> Optional[float]:
        return self._max

    def percentile(self, p: float) -> float:
        """Return the *p*-th percentile (0..100) of the observed samples.

        Exact while at most ``cap`` samples have been added; beyond
        that, computed over the uniform reservoir (a sampling
        approximation whose error shrinks with the cap)."""
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        if len(ordered) == 1:
            return ordered[0]
        rank = (p / 100.0) * (len(ordered) - 1)
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        frac = rank - low
        return ordered[low] * (1 - frac) + ordered[high] * frac


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

    def get_meta(self, name: str, default: float = 0.0) -> float:
        return self.meta.get(name, default)

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def mean(self, name: str) -> float:
        hist = self.histograms.get(name)
        return hist.mean if hist else 0.0

    def frame(self, prefixes: Optional[Iterable[str]] = None):
        """A queryable :class:`~repro.sim.statsframe.StatsFrame` over
        :meth:`snapshot` — the structured alternative to prefix-slicing
        the flat dict."""
        from repro.sim.statsframe import StatsFrame
        return StatsFrame(self.snapshot(prefixes))

    def snapshot(self, prefixes: Optional[Iterable[str]] = None) -> Dict[str, float]:
        """Flatten counters and histogram means into a plain dict."""
        out: Dict[str, float] = {}
        for name, value in self.counters.items():
            if prefixes is None or any(name.startswith(p) for p in prefixes):
                out[name] = float(value)
        for name, hist in self.histograms.items():
            if prefixes is None or any(name.startswith(p) for p in prefixes):
                out[name + ".mean"] = hist.mean
                out[name + ".count"] = float(hist.count)
        out.update(self.gauges)
        return out
