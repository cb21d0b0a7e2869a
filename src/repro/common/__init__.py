"""Shared substrate: types, events, stats, CRC, logical time, RNG."""

from .crc import crc16_bytes, crc16_words, hash_block
from .errors import (
    ConfigError,
    DeadlockError,
    ProtocolError,
    RecoveryError,
    ReproError,
    SimulationError,
    TraceFormatError,
)
from .events import Scheduler
from .logical_time import (
    TIMESTAMP_BITS,
    TIMESTAMP_MASK,
    DirectoryLogicalTime,
    LogicalTimeBase,
    SnoopingLogicalTime,
    truncate,
)
from .rng import SplitRng
from .stats import StatsRegistry, mean_stddev
from .types import (
    BLOCK_SIZE,
    WORD_MASK,
    WORD_SIZE,
    WORDS_PER_BLOCK,
    CoherenceState,
    EpochType,
    MembarMask,
    OpType,
    ViolationReport,
    block_of,
    is_word_aligned,
    word_index,
    word_of,
)

__all__ = [
    "BLOCK_SIZE",
    "WORD_MASK",
    "WORD_SIZE",
    "WORDS_PER_BLOCK",
    "CoherenceState",
    "ConfigError",
    "DeadlockError",
    "DirectoryLogicalTime",
    "EpochType",
    "LogicalTimeBase",
    "MembarMask",
    "OpType",
    "ProtocolError",
    "RecoveryError",
    "ReproError",
    "Scheduler",
    "SimulationError",
    "SnoopingLogicalTime",
    "SplitRng",
    "StatsRegistry",
    "TIMESTAMP_BITS",
    "TIMESTAMP_MASK",
    "TraceFormatError",
    "ViolationReport",
    "block_of",
    "crc16_bytes",
    "crc16_words",
    "hash_block",
    "is_word_aligned",
    "mean_stddev",
    "truncate",
    "word_index",
    "word_of",
]
