"""Coherence protocols: the snoopy MOSI engine with the O_D state and FID
lists (SCORPIO), plus the LPD and HT distributed-directory baselines."""

from repro.coherence.dir_l2 import DirectoryL2Controller
from repro.coherence.directory import (DirectoryConfig, DirectoryController,
                                       DirEntry)
from repro.coherence.l2_controller import (CacheConfig, L2Controller, Mshr,
                                           WritebackEntry)
from repro.coherence.messages import (CoherenceRequest, CoherenceResponse,
                                      DirForward, MemRead, ReqKind, RespKind)
from repro.coherence.mosi import (Action, State, Transition,
                                  needs_data_for_write, on_remote_request,
                                  request_for)

__all__ = [
    "DirectoryL2Controller",
    "DirectoryConfig", "DirectoryController", "DirEntry",
    "CacheConfig", "L2Controller", "Mshr", "WritebackEntry",
    "CoherenceRequest", "CoherenceResponse", "DirForward", "MemRead",
    "ReqKind", "RespKind",
    "Action", "State", "Transition", "needs_data_for_write",
    "on_remote_request", "request_for",
]
