"""Trace file I/O: persist and reload per-core memory traces.

The paper "obtain[s] SPLASH-2 and PARSEC traces from the Graphite
simulator and inject[s] them into the SCORPIO RTL" (Sec. 5).  This module
provides the equivalent interchange point: a plain-text format any
external tool (or the synthetic generators in :mod:`repro.workloads`) can
produce, which the harness loads into :class:`~repro.cpu.trace.Trace`
objects.

Format — one file holds every core's trace:

.. code-block:: text

    # scorpio-trace v1
    # cores: 4
    core 0
    R 0x40000000 3
    W 0x40000020 1
    A 0x50000000 10
    core 1
    ...

Each op line is ``<R|W|A> <hex-or-dec address> <think cycles>``.  Blank
lines and ``#`` comments are ignored.  ``core`` headers may appear in any
order but each core id at most once; cores with no ops are legal (idle
injectors).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Sequence, TextIO, Union

from repro.cpu.trace import Trace, TraceOp

MAGIC = "# scorpio-trace v1"


class TraceFormatError(ValueError):
    """The trace file violates the format."""


def dump_traces(traces: Sequence[Trace], target: Union[str, Path, TextIO],
                ) -> None:
    """Write *traces* (one per core, index = core id) to *target*."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="ascii") as fh:
            dump_traces(traces, fh)
        return
    target.write(f"{MAGIC}\n")
    target.write(f"# cores: {len(traces)}\n")
    for core, trace in enumerate(traces):
        target.write(f"core {core}\n")
        for op in trace:
            target.write(f"{op.op} {op.addr:#x} {op.think}\n")


def load_traces(source: Union[str, Path, TextIO],
                expect_cores: int = 0) -> List[Trace]:
    """Parse a trace file back into one :class:`Trace` per core.

    ``expect_cores`` pads the result with empty traces up to that count
    (and rejects files declaring more cores than expected).
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="ascii") as fh:
            return load_traces(fh, expect_cores)
    per_core: Dict[int, List[TraceOp]] = {}
    current: List[TraceOp] = []
    current_core = -1
    first_line = True
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if first_line:
            first_line = False
            if line != MAGIC:
                raise TraceFormatError(
                    f"line 1: expected {MAGIC!r}, got {line!r}")
            continue
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "core":
            if len(fields) != 2:
                raise TraceFormatError(f"line {lineno}: malformed core "
                                       f"header {line!r}")
            core = _parse_int(fields[1], lineno)
            if core < 0:
                raise TraceFormatError(f"line {lineno}: negative core id")
            if core in per_core:
                raise TraceFormatError(f"line {lineno}: duplicate core "
                                       f"{core}")
            per_core[core] = current = []
            current_core = core
            continue
        if current_core < 0:
            raise TraceFormatError(f"line {lineno}: op before any "
                                   f"'core' header")
        if len(fields) != 3:
            raise TraceFormatError(f"line {lineno}: expected "
                                   f"'<op> <addr> <think>', got {line!r}")
        op, addr_s, think_s = fields
        try:
            current.append(TraceOp(op, _parse_int(addr_s, lineno),
                                   _parse_int(think_s, lineno)))
        except ValueError as exc:
            raise TraceFormatError(f"line {lineno}: {exc}") from exc
    if first_line:
        raise TraceFormatError("empty trace file")
    n_cores = max(per_core, default=-1) + 1
    if expect_cores:
        if n_cores > expect_cores:
            raise TraceFormatError(f"file declares core {n_cores - 1} but "
                                   f"only {expect_cores} cores expected")
        n_cores = expect_cores
    return [Trace(per_core.get(core, ())) for core in range(n_cores)]


def _parse_int(text: str, lineno: int) -> int:
    try:
        return int(text, 0)   # accepts 0x…, 0o…, decimal
    except ValueError:
        raise TraceFormatError(f"line {lineno}: not a number: {text!r}")
