"""Cache coherence: MOSI directory and snooping protocols."""

from .cache_controller import BaseCacheController, OpKind, WritebackEntry
from .directory import DirectoryCacheController, DirectoryMemoryController
from .messages import Coh, Dvcc, Sn, Snoop
from .snooping import SnoopingCacheController, SnoopingMemoryController

__all__ = [
    "BaseCacheController",
    "Coh",
    "DirectoryCacheController",
    "DirectoryMemoryController",
    "Dvcc",
    "OpKind",
    "Sn",
    "Snoop",
    "SnoopingCacheController",
    "SnoopingMemoryController",
    "WritebackEntry",
]
