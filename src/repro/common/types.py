"""Fundamental value types shared by every subsystem.

The simulator models memory at word granularity (as in the paper's
Appendix A, which assumes word-granularity accesses) and coherence at
block granularity.  Addresses are plain byte addresses held in ``int``;
the helpers here convert between byte, word, and block granularity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

#: Size of a coherence block (cache line) in bytes.  Matches the 64 B
#: lines of the paper's memory-system configuration (Table 6).
BLOCK_SIZE = 64

#: Size of a memory word in bytes.  Appendix A reasons at word
#: granularity; we use 32-bit words (the benchmarks' 32-bit fraction).
WORD_SIZE = 4

#: Number of words per block.
WORDS_PER_BLOCK = BLOCK_SIZE // WORD_SIZE

#: Mask for 32-bit word values.
WORD_MASK = 0xFFFFFFFF


def block_of(addr: int) -> int:
    """Return the block-aligned base address containing ``addr``."""
    return addr & ~(BLOCK_SIZE - 1)


def word_of(addr: int) -> int:
    """Return the word-aligned address containing ``addr``."""
    return addr & ~(WORD_SIZE - 1)


def word_index(addr: int) -> int:
    """Return the index of ``addr``'s word within its block."""
    return (addr & (BLOCK_SIZE - 1)) // WORD_SIZE


def is_word_aligned(addr: int) -> bool:
    """True if ``addr`` is word aligned."""
    return addr % WORD_SIZE == 0


class OpType(enum.Enum):
    """Memory-operation types that appear in ordering tables.

    ``ATOMIC`` (e.g. SPARC ``swap``) must satisfy the ordering
    constraints of both ``LOAD`` and ``STORE`` (paper Section 4).
    ``STBAR`` is PSO's store barrier; ``MEMBAR`` is SPARC v9's masked
    barrier.
    """

    LOAD = "load"
    STORE = "store"
    ATOMIC = "atomic"
    MEMBAR = "membar"
    STBAR = "stbar"

    # Members are singletons, so identity hashing is equivalent to the
    # default ``Enum.__hash__`` (a Python-level call that hashes the
    # member name) but dispatches in C.  Op types key the hottest dict
    # lookups in the simulator (ordering-table rows, per-op stats); no
    # code iterates *sets* of members, so the hash value itself is
    # never observable.
    __hash__ = object.__hash__

    def is_memory_access(self) -> bool:
        """True for operations that read or write memory."""
        return self in (OpType.LOAD, OpType.STORE, OpType.ATOMIC)

    def access_types(self) -> tuple["OpType", ...]:
        """Primitive access types this operation counts as.

        Atomics count as both a load and a store for ordering purposes.
        """
        if self is OpType.ATOMIC:
            return (OpType.LOAD, OpType.STORE)
        return (self,)


class MembarMask(enum.IntFlag):
    """SPARC v9 Membar ordering mask bits (paper Section 4, Table 4).

    Each bit requires that accesses of the first kind that precede the
    membar in program order perform before accesses of the second kind
    that follow it.
    """

    NONE = 0
    LOADLOAD = 0x1  # #LL
    LOADSTORE = 0x2  # #LS
    STORELOAD = 0x4  # #SL
    STORESTORE = 0x8  # #SS
    ALL = 0xF

    @classmethod
    def full(cls) -> "MembarMask":
        """Mask ordering everything against everything (Membar #Sync)."""
        return cls.ALL


class CoherenceState(enum.Enum):
    """MOSI stable coherence states."""

    M = "M"  # Modified: read/write permission, owner, dirty
    O = "O"  # Owned: read permission, owner, dirty, sharers may exist
    S = "S"  # Shared: read permission
    I = "I"  # Invalid

    __hash__ = object.__hash__  # singleton members; see OpType

    def can_read(self) -> bool:
        # Everything but I is readable; the identity check avoids
        # building a members tuple per call on the per-access path.
        return self is not CoherenceState.I

    def can_write(self) -> bool:
        return self is CoherenceState.M

    def is_owner(self) -> bool:
        return self is CoherenceState.M or self is CoherenceState.O


class EpochType(enum.Enum):
    """Epoch kinds used by the Cache Coherence checker (Section 4.3)."""

    READ_ONLY = "RO"
    READ_WRITE = "RW"

    __hash__ = object.__hash__  # singleton members; see OpType


@dataclass(frozen=True)
class ViolationReport:
    """A dynamic-verification violation detected by a checker.

    Attributes:
        checker: short name of the detecting checker (``"UO"``, ``"AR"``,
            ``"CC"``, ``"ECC"`` or ``"WATCHDOG"``).
        cycle: simulation cycle at which the violation was flagged.
        node: node where the violation was observed.
        kind: machine-readable violation category.
        detail: human-readable explanation.
    """

    checker: str
    cycle: int
    node: int
    kind: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"[cycle {self.cycle}] {self.checker} violation at node "
            f"{self.node}: {self.kind} ({self.detail})"
        )
