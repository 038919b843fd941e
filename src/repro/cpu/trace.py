"""Memory traces: the unit of work fed to trace-injector cores.

The paper's RTL evaluation replaces each core with "a memory trace
injector that feeds SPLASH-2 and PARSEC benchmark traces into the L2
cache controller's AHB interface" (Sec. 5).  We do the same: a trace is a
sequence of :class:`TraceOp` — loads/stores with think-time gaps standing
in for the non-memory instructions between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List


@dataclass(frozen=True)
class TraceOp:
    """One memory operation in a core's trace.

    ``think`` is the number of cycles of non-memory work separating this
    operation from the previous one's issue.  'A' is an atomic
    read-modify-write (lock/barrier primitive).
    """

    op: str        # 'R', 'W' or 'A'
    addr: int
    think: int = 1

    def __post_init__(self) -> None:
        if self.op not in ("R", "W", "A"):
            raise ValueError(
                f"op must be 'R', 'W' or 'A', got {self.op!r}")
        if self.addr < 0:
            raise ValueError("address must be non-negative")
        if self.think < 0:
            raise ValueError("think time must be non-negative")


class Trace:
    """A finite, replayable sequence of trace operations."""

    def __init__(self, ops: Iterable[TraceOp]) -> None:
        self._ops: List[TraceOp] = list(ops)

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[TraceOp]:
        return iter(self._ops)

    def __getitem__(self, idx: int) -> TraceOp:
        return self._ops[idx]

    @property
    def reads(self) -> int:
        return sum(1 for op in self._ops if op.op == "R")

    @property
    def writes(self) -> int:
        return sum(1 for op in self._ops if op.op == "W")

    def footprint(self, line_size: int) -> int:
        """Distinct cache lines touched by this trace."""
        return len({op.addr & ~(line_size - 1) for op in self._ops})
