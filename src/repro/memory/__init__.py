"""Memory substrate: edge memory controllers and address interleaving."""

from repro.memory.controller import (AddressInterleavedMap, MemoryConfig,
                                     MemoryController)

__all__ = ["AddressInterleavedMap", "MemoryConfig", "MemoryController"]
