"""Tracing from outside the program: spans, and profile time per layer.

Two instruments, both used only by the traced pass (``--trace 1``); the
timed pass runs with neither, so end-to-end numbers carry no tracing
cost:

* :class:`SpanRecorder` — in-memory spans (name, start, end, parent,
  request id) around the benchmark's own calls into the public
  document / sweep / client API.  A span's self time is its duration
  minus the part its child spans cover.
* :func:`profile_layers` — ``cProfile`` around one public simulator call,
  self time and call counts attributed to a layer by source module.
"""

from __future__ import annotations

import cProfile
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

# Module -> layer, first matching prefix wins (paths relative to
# src/repro).  The simulator layers follow the package boundaries;
# ``harness`` is the rest of the package (documents, sweeps, serve, CLI)
# and ``python`` everything outside it (stdlib, this benchmark).
LAYER_RULES: Tuple[Tuple[str, str], ...] = (
    ("sim/stats", "sim.stats"),
    ("sim/", "sim.engine"),
    ("noc/router.py", "noc.router"),
    ("noc/", "noc.fabric"),
    ("nic/", "nic"),
    ("notification/", "notification"),
    ("coherence/", "coherence"),
    ("ordering_baselines/", "coherence"),
    ("cache/", "cache"),
    ("memory/", "memory"),
    ("cpu/", "cpu"),
    ("workloads/", "cpu"),
    ("systems/", "systems"),
    ("experiments/builders.py", "systems"),
    ("", "harness"),
)
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    layer for _prefix, layer in LAYER_RULES)) + ("python",)


def layer_of(relative_path: str) -> str:
    """The layer of a module given its path below ``src/repro``."""
    for prefix, layer in LAYER_RULES:
        if relative_path.startswith(prefix):
            return layer
    raise AssertionError(relative_path)    # "" matches everything


def layer_of_file(filename: str, package_root: str) -> str:
    """The layer of an absolute source *filename*; ``python`` when it is
    not below *package_root* (the directory of the ``repro`` package)."""
    if filename.startswith(package_root):
        return layer_of(filename[len(package_root):].lstrip("/"))
    return "python"


def profile_layers(call: Callable[[], Any], package_root: str,
                   ) -> Tuple[Any, float, Dict[str, Tuple[float, int]]]:
    """Run *call* under ``cProfile``; returns ``(result, wall seconds,
    {layer: (self seconds, calls)})``.

    Built-in functions are not profiled separately (``builtins=False``),
    so the time of a ``list.append`` or ``dict.get`` stays in the self
    time of the Python function that called it — which is the layer that
    chose to make the call.
    """
    profiler = cProfile.Profile(builtins=False)
    start = time.perf_counter()
    result = profiler.runcall(call)
    wall = time.perf_counter() - start
    layers = {layer: [0.0, 0] for layer in LAYERS}
    for entry in profiler.getstats():
        filename = getattr(entry.code, "co_filename", "")
        bucket = layers[layer_of_file(filename, package_root)]
        bucket[0] += entry.inlinetime
        bucket[1] += entry.callcount
    return result, wall, {layer: (self_s, calls)
                          for layer, (self_s, calls) in layers.items()}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]        # index of the enclosing span, if any
    request: Optional[str]       # shared by the spans of one request


class SpanRecorder:
    """Collects spans in memory; thread-safe, one open-span stack per
    thread (a client thread's spans nest under that thread's request)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._open = threading.local()

    @contextmanager
    def span(self, name: str, request: Optional[str] = None):
        stack = self._open.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = self.spans[parent].request
        record = Span(name, time.perf_counter(), 0.0, parent, request)
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def self_seconds(self) -> List[float]:
        """Per span: duration minus the duration of its direct children."""
        own = [span.end - span.start for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.end - span.start
        return own

    def durations_ms(self, name: str) -> List[float]:
        return [(span.end - span.start) * 1e3 for span in self.spans
                if span.name == name]

    def summary(self) -> Dict[str, Dict[str, float]]:
        """``{name: {count, total_ms, self_ms}}`` over all spans."""
        out: Dict[str, Dict[str, float]] = {}
        for span, own in zip(self.spans, self.self_seconds()):
            row = out.setdefault(span.name, {"count": 0, "total_ms": 0.0,
                                             "self_ms": 0.0})
            row["count"] += 1
            row["total_ms"] += (span.end - span.start) * 1e3
            row["self_ms"] += own * 1e3
        return out

    def dump(self) -> List[Dict[str, Any]]:
        return [{"name": span.name, "start": span.start, "end": span.end,
                 "parent": span.parent, "request": span.request}
                for span in self.spans]


class NoSpans:
    """The recorder of the timed pass: records nothing."""

    def span(self, name: str, request: Optional[str] = None):
        return nullcontext()
