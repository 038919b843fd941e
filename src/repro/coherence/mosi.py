"""MOSI state machine used by the private L2 caches.

The chip's protocol is MOSI with an O_D ("owned dirty") state replacing a
per-line dirty bit (Sec. 4.2): when an M-state owner observes a GETS it
supplies the data and moves to O_D, keeping dirty data on chip instead of
writing back.  A clean owned state never arises in the flows the paper
describes (ownership is only taken by writing), so this implementation's
``O`` *is* the paper's O_D — the owner state is always dirty and data is
written back to memory only on eviction.  This collapse is documented in
DESIGN.md.

The table below is pure protocol logic (no timing): callers feed it the
current stable state and an observed *remote* request, and it returns the
next state plus the actions the controller must perform.  What a node's
own ordered request does is the L2 controller's
(``L2Controller._process_own`` / ``_own_put_ordered``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List

from repro.coherence.messages import ReqKind


class State(Enum):
    M = "M"    # modified: exclusive, dirty
    O = "O"    # owned (the paper's O_D): shared, dirty, must forward data
    S = "S"    # shared, clean, not responsible for forwarding
    I = "I"    # invalid

    @property
    def is_owner(self) -> bool:
        return self in (State.M, State.O)

    @property
    def readable(self) -> bool:
        return self is not State.I

    @property
    def writable(self) -> bool:
        return self is State.M


class Action(Enum):
    SEND_DATA = "send_data"            # owner supplies the line
    INVALIDATE_L1 = "invalidate_l1"    # keep inclusion: kill the L1 copy
    NONE = "none"


@dataclass
class Transition:
    next_state: State
    actions: List[Action]


def on_remote_request(state: State, kind: ReqKind) -> Transition:
    """State change when a *remote* node's ordered request is observed."""
    if kind is ReqKind.GETS:
        if state is State.M:
            return Transition(State.O, [Action.SEND_DATA])
        if state is State.O:
            return Transition(State.O, [Action.SEND_DATA])
        return Transition(state, [Action.NONE])
    if kind is ReqKind.GETX:
        if state in (State.M, State.O):
            return Transition(State.I,
                              [Action.SEND_DATA, Action.INVALIDATE_L1])
        if state is State.S:
            return Transition(State.I, [Action.INVALIDATE_L1])
        return Transition(State.I, [Action.NONE])
    if kind is ReqKind.PUT:
        # Another node returned ownership to memory; shared copies remain
        # legal (memory now forwards).
        return Transition(state, [Action.NONE])
    raise ValueError(f"unknown request kind {kind}")


def needs_data_for_write(state: State) -> bool:
    """Does a write from *state* require a data transfer to complete?"""
    return not state.is_owner


def request_for(op: str, state: State) -> ReqKind:
    """Which broadcast, if any, a core operation from *state* requires.

    Returns ``None`` (no request) for hits: reads of any readable state
    and writes/atomics in M.  Atomics ('A', the lock/barrier primitives
    of Sec. 4.3) need exclusive ownership exactly like stores; their
    read-modify-write atomicity comes from holding M across the op.
    """
    if op == "R":
        return None if state.readable else ReqKind.GETS
    if op in ("W", "A"):
        return None if state.writable else ReqKind.GETX
    raise ValueError(f"unknown op {op!r} (expected 'R', 'W' or 'A')")
