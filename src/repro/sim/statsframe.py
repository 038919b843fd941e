"""StatsFrame: a typed, queryable view over a flat stats snapshot.

:meth:`StatsRegistry.snapshot` (and therefore the ``stats`` of every
result row — :class:`repro.core.api.RunResult`, fresh or recalled from
the cache) is a flat ``{name: float}`` dict in
which histograms appear as ``<stem>.mean`` / ``<stem>.count`` pairs.
Consumers used to scrape it with string-prefix slicing; a
:class:`StatsFrame` replaces that with structured queries::

    frame = result.frame                      # any RunResult
    frame["noc.flits.transmitted"]            # exact key -> float
    frame["l2.breakdown.cache.*"].mean        # wildcard -> {stem: mean}
    frame.value("nic.requests_sent", 0.0)     # .get() equivalent
    frame.relative_to("l2.breakdown.cache.").mean   # {category: mean}
    frame.groups()                            # {"l2": <frame>, "noc": ...}
    frame.to_json()                           # stable sorted-key export

Indexing with a pattern containing a wildcard (``*``, ``?``, ``[``)
returns a sub-frame; an exact name returns the float (KeyError if
absent).  Histogram stems are recognized structurally: any ``X`` for
which both ``X.mean`` and ``X.count`` exist in the flat view.  A frame
built over a plain dict wraps it directly (a live, never-mutating view
— construction is O(1)); other mappings are copied once.
"""

from __future__ import annotations

import json
from fnmatch import fnmatchcase
from typing import Dict, Iterator, Mapping, Optional, Tuple

_WILDCARDS = ("*", "?", "[")


class StatsFrame(Mapping[str, float]):
    """Read-only structured view over a flat ``{name: value}`` snapshot."""

    __slots__ = ("_stats", "_stems")

    def __init__(self, stats: Mapping[str, float]) -> None:
        if isinstance(stats, StatsFrame):
            self._stats: Dict[str, float] = stats._stats
        elif isinstance(stats, dict):
            self._stats = stats
        else:
            self._stats = dict(stats)
        self._stems: Optional[Tuple[str, ...]] = None

    @classmethod
    def from_registry(cls, registry) -> "StatsFrame":
        """Frame over a live :class:`~repro.sim.stats.StatsRegistry`."""
        return cls(registry.snapshot())

    # ------------------------------------------------------------------
    # Mapping protocol (flat view)
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._stats)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._stats))

    def __contains__(self, name: object) -> bool:
        return name in self._stats

    def __getitem__(self, pattern: str):
        """Exact name -> float; wildcard pattern -> sub-frame."""
        if any(ch in pattern for ch in _WILDCARDS):
            return self.select(pattern)
        return self._stats[pattern]

    def __repr__(self) -> str:   # pragma: no cover - debugging aid
        return (f"StatsFrame({len(self._stats)} stats, "
                f"{len(self.stems())} histograms)")

    def value(self, name: str, default: float = 0.0) -> float:
        """Exact flat lookup with a default (the ``stats.get`` shim)."""
        return self._stats.get(name, default)

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------

    def select(self, *patterns: str) -> "StatsFrame":
        """Sub-frame of entries matching any ``fnmatch`` pattern.

        A pattern matches a flat key directly, or a histogram *stem* —
        selecting a stem brings its ``.mean``/``.count`` pair along, so
        ``select("l2.miss_latency")`` keeps the whole histogram.
        """
        stems = self.stems()
        out: Dict[str, float] = {}
        for key, value in self._stats.items():
            stem = _histogram_stem(key)
            for pattern in patterns:
                if fnmatchcase(key, pattern) or (
                        stem is not None and stem in stems
                        and fnmatchcase(stem, pattern)):
                    out[key] = value
                    break
        return StatsFrame(out)

    def relative_to(self, prefix: str) -> "StatsFrame":
        """Sub-frame of entries under *prefix*, with the prefix stripped
        from every name (``relative_to("l2.breakdown.cache.")`` yields a
        frame keyed by bare category names)."""
        return StatsFrame({key[len(prefix):]: value
                           for key, value in self._stats.items()
                           if key.startswith(prefix) and key != prefix})

    def groups(self, depth: int = 1) -> Dict[str, "StatsFrame"]:
        """Split into sub-frames by the first *depth* dotted components
        (``{"l2": <frame>, "noc": <frame>, ...}``)."""
        buckets: Dict[str, Dict[str, float]] = {}
        for key, value in self._stats.items():
            group = ".".join(key.split(".")[:depth])
            buckets.setdefault(group, {})[key] = value
        return {group: StatsFrame(stats)
                for group, stats in sorted(buckets.items())}

    # ------------------------------------------------------------------
    # Typed accessors
    # ------------------------------------------------------------------

    def stems(self) -> Tuple[str, ...]:
        """Histogram stems present in this frame, sorted."""
        if self._stems is None:
            self._stems = tuple(sorted(
                stem for stem in {_histogram_stem(k) for k in self._stats}
                if stem is not None
                and f"{stem}.mean" in self._stats
                and f"{stem}.count" in self._stats))
        return self._stems

    @property
    def mean(self) -> Dict[str, float]:
        """``{stem: mean}`` for every ``<stem>.mean`` entry in the frame
        (suffix-based, so partial snapshots behave like full ones)."""
        return {key[:-len(".mean")]: value
                for key, value in sorted(self._stats.items())
                if key.endswith(".mean")}

    @property
    def count(self) -> Dict[str, float]:
        """``{stem: sample count}`` for every ``<stem>.count`` entry."""
        return {key[:-len(".count")]: value
                for key, value in sorted(self._stats.items())
                if key.endswith(".count")}

    @property
    def scalars(self) -> Dict[str, float]:
        """Non-histogram entries (counters and gauges), sorted."""
        hist_keys = {f"{stem}{suffix}" for stem in self.stems()
                     for suffix in (".mean", ".count")}
        return {key: self._stats[key] for key in sorted(self._stats)
                if key not in hist_keys}

    def total(self) -> float:
        """Sum of every flat value in the frame (histogram pairs add
        their means and counts too — select first if that matters)."""
        return float(sum(self._stats.values()))

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, float]:
        """Plain flat dict, sorted by name."""
        return {key: self._stats[key] for key in sorted(self._stats)}

    def to_json(self, indent: Optional[int] = None) -> str:
        """Stable JSON export: sorted keys, no host-dependent content —
        byte-identical for equal snapshots."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent,
                          separators=(",", ": ") if indent else (",", ":"))

    def table(self, title: str = "") -> str:
        """Grouped, aligned text rendering (histograms as one row)."""
        lines = [title] if title else []
        hist_keys = {f"{stem}{suffix}" for stem in self.stems()
                     for suffix in (".mean", ".count")}
        rows = []
        for stem in self.stems():
            rows.append((stem, f"mean {self._stats[stem + '.mean']:.2f} "
                               f"(n={self._stats[stem + '.count']:.0f})"))
        for key in sorted(self._stats):
            if key not in hist_keys:
                rows.append((key, f"{self._stats[key]:g}"))
        rows.sort()
        width = max((len(name) for name, _ in rows), default=0)
        lines.extend(f"{name:<{width}}  {cell}" for name, cell in rows)
        return "\n".join(lines)


def _histogram_stem(key: str) -> Optional[str]:
    """The stem if *key* looks like one half of a histogram pair."""
    for suffix in (".mean", ".count"):
        if key.endswith(suffix):
            return key[:-len(suffix)]
    return None
